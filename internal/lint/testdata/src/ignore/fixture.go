// Fixture for //lint:ignore suppression: trailing and preceding-line
// directives suppress exactly their target line; anything else still
// fires.
package ignore

import "os"

// suppressedTrailing carries the directive on the offending line.
func suppressedTrailing(path string) {
	os.Remove(path) //lint:ignore errchecklite removal is best-effort cleanup
}

// suppressedPreceding carries the directive on the line above.
func suppressedPreceding(path string) {
	//lint:ignore errchecklite removal is best-effort cleanup
	os.Remove(path)
}

// notReached: a directive does not skip past an intervening line.
func notReached(path string) {
	//lint:ignore errchecklite directives target only the next line
	_ = path
	os.Remove(path) // want `os.Remove returns an error that is not checked`
}

// wrongCheck: suppressing a different check leaves the finding live.
func wrongCheck(path string) {
	os.Remove(path) //lint:ignore refbalance not the check that fires here // want `os.Remove returns an error that is not checked`
}

// unsuppressed is the control.
func unsuppressed(path string) {
	os.Remove(path) // want `os.Remove returns an error that is not checked`
}
