package live // want `package live has no package comment on any file`

// Documented is a correctly documented exported function: no finding.
func Documented() {}

func Undocumented() {} // want `exported function Undocumented has no doc comment`

// This comment talks about something else entirely.
func Mislabeled() {} // want `doc comment on exported function Mislabeled does not mention "Mislabeled"`

// Store is a documented exported type; its documented method is clean.
type Store struct{}

// Len reports the documented length.
func (s *Store) Len() int { return 0 }

func (s *Store) Close() error { return nil } // want `exported method Store.Close has no doc comment`

type Window struct{} // want `exported type Window has no doc comment on its declaration or group`

// FsyncMode is documented at the group level, which covers it.
type (
	// Mode selects a strategy.
	Mode int
)

// EventKind values below share one documented group: the group comment
// covers every exported constant, mention rule not applied to runs.
const (
	EventA = iota
	EventB
)

const EventC = 7 // want `exported const EventC has no doc comment on its declaration or group`

// ErrClosed mentions itself, as a doc comment should.
var ErrClosed error

var ErrBroken error // want `exported var ErrBroken has no doc comment on its declaration or group`

// unexported declarations need no doc comments.
func helper() {}

type internalState struct{}

// stringer has an exported method on an unexported receiver: skipped,
// the contract belongs to the interface it satisfies.
type stringer struct{}

func (stringer) String() string { return "" }
