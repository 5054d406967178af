package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"csce/internal/ccsr"
)

// Disk-backed write-ahead log: the one durable structure of a live graph.
// A WAL directory (one per graph) holds a segmented record log and at most
// one checkpoint:
//
//	<dir>/checkpoint                 store serialized at checkpointed-through
//	<dir>/00000000000000004097.wal   sealed segment; name = first seq it holds
//	<dir>/00000000000000008193.wal   active segment (appends land here)
//
// Each segment starts with an 8-byte magic and holds length-prefixed,
// CRC-checksummed records:
//
//	u32 payload length | u32 crc32(payload) | payload
//	payload: u64 seq | u64 epoch | u8 op | u32 src | u32 dst |
//	         u16 label id | u16 name length | name bytes
//
// Records carry the label's symbolic name when the caller knows it
// (Mutation.LabelName): interned ids are assigned in arrival order and a
// restarted process re-interns names in replay order, so the name — not
// the id — is the stable identity across restarts. Replay prefers the
// name and falls back to the raw id for nameless (programmatic) records.
//
// Three watermarks over the seq axis say what each part of the log is for:
//
//	checkpointed-through <= resumable-from <= durable-through <= last seq
//
// durable-through is the last fsynced seq (the last acknowledged one under
// FsyncAlways). resumable-from is the oldest seq a subscriber may resume
// at: the in-memory ring holds every later record and Graph.resumeBase is
// the state at exactly that seq. checkpointed-through is the seq of the
// checkpoint file. The checkpoint is always taken AT resumable-from — it
// serializes resumeBase, not the head — so the one file is both the crash-
// recovery base and the resume base: recovery loads it and replays the log
// through the same ring-append-and-fold path Mutate uses, which rebuilds
// writer, ring and resume base in one pass. Retention is "delete sealed
// segments wholly below checkpointed-through"; a checkpoint is written
// once more than KeepSegments sealed segments sit wholly below
// resumable-from, so a log shorter than the resume window is never
// truncated.
//
// A crash can leave a torn tail: a partially written frame at the end of
// the *final* segment. Replay detects it (short frame or CRC mismatch),
// truncates the file back to the last whole record, and recovery proceeds
// — the torn batch was never acknowledged, because acknowledgement
// happens after the WAL append returns. The same damage in a non-final
// segment cannot be explained by a crash mid-append and is refused as
// corruption.

const (
	segmentMagic    = "CSCEWAL1"
	checkpointMagic = "CSCECKP1"
	segmentSuffix   = ".wal"
	checkpointName  = "checkpoint"
	frameHeaderLen  = 8       // u32 length + u32 crc
	minRecordLen    = 29      // fixed payload fields; a name may follow
	maxRecordLen    = 1 << 20 // sanity bound on one payload
)

// FsyncPolicy selects when the WAL file is fsynced.
type FsyncPolicy uint8

const (
	// FsyncAlways syncs after every committed batch: an acknowledged
	// mutation survives power loss. The commit path pays one fsync.
	FsyncAlways FsyncPolicy = iota
	// FsyncNever leaves syncing to the OS: process crashes lose nothing,
	// machine crashes lose whatever the kernel had not written back.
	FsyncNever
)

// String renders the policy as its flag spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", uint8(p))
	}
}

// ParseFsyncPolicy parses the -fsync flag spelling.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("live: unknown fsync policy %q (always, never)", s)
	}
}

// Durability configures the disk WAL of one live graph. The zero value
// (empty Dir) disables it: the graph is purely in-memory, as before.
type Durability struct {
	// Dir is the graph's WAL directory; empty disables durability.
	Dir string
	// Fsync is the sync policy (default FsyncAlways).
	Fsync FsyncPolicy
	// SegmentSize rotates the active segment once it exceeds this many
	// bytes (default 4 MiB).
	SegmentSize int64
	// KeepSegments is how many sealed segments may sit wholly below the
	// resumable-from watermark before a checkpoint is written there and
	// they are deleted (default 4). Raising it amortizes one store
	// serialization over more log, at the price of a longer replay.
	KeepSegments int
}

func (d Durability) withDefaults() Durability {
	if d.SegmentSize <= 0 {
		d.SegmentSize = 4 << 20
	}
	if d.KeepSegments <= 0 {
		d.KeepSegments = 4
	}
	return d
}

// Observer receives durations of the WAL's hidden work, so the serving
// layer can histogram them without live importing its metrics. All fields
// are optional.
type Observer struct {
	// WALAppend observes the full disk append of one batch (serialize +
	// write + any same-batch fsync).
	WALAppend func(time.Duration)
	// WALFsync observes each fsync, from any policy.
	WALFsync func(time.Duration)
	// WALReplay observes the one startup replay (checkpoint load included).
	WALReplay func(time.Duration)
	// WALCheckpoint observes each checkpoint write + truncation.
	WALCheckpoint func(time.Duration)
	// ResumeReplay observes each subscriber resume replay.
	ResumeReplay func(time.Duration)
	// ResumeLogAppend observes the resume-window maintenance of each
	// committed batch: the ring append plus rolling the resume base over
	// whatever retention pushed out (it rides the commit path after the
	// WAL append). The name predates the one-log layout.
	ResumeLogAppend func(time.Duration)
	// SigMaintain observes the prefilter-signature maintenance of each
	// committed batch (it rides inside the commit critical section).
	SigMaintain func(time.Duration)
}

func observe(f func(time.Duration), start time.Time) {
	if f != nil {
		f(time.Since(start))
	}
}

// errTornTail is the internal marker for a frame that ends mid-write; the
// replay loop converts it into truncation when it occurs in the final
// segment.
var errTornTail = errors.New("torn tail")

// segmentInfo is one on-disk segment, sorted by the first seq it holds.
type segmentInfo struct {
	path     string
	firstSeq uint64
	size     int64
}

// diskWAL owns the segment files of one graph. Appends are serialized by
// the graph's writer lock; the internal mutex exists for checkpoints and
// stats readers.
type diskWAL struct {
	dir  string
	opts Durability
	obs  Observer

	mu          sync.Mutex
	cur         *os.File
	curInfo     segmentInfo
	sealed      []segmentInfo
	failed      error // latched: a refused append could not be rolled back
	fsyncs      uint64
	checkpoints uint64
	closed      bool
}

// openDiskWAL scans (creating if needed) the WAL directory. The returned
// WAL is not yet writable: recovery must call replay and then openAppend.
//
// The scan doubles as the one-shot upgrade from the layout that had an
// incremental-checkpoint chain and a resume log: an NNN.inc chain file is
// a sealed segment under another name and is renamed back, and resume/
// held a second copy of records the log already has and is removed.
// upgraded reports that either happened.
func openDiskWAL(opts Durability, obs Observer) (d *diskWAL, upgraded bool, err error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, false, fmt.Errorf("live: wal dir: %w", err)
	}
	d = &diskWAL{dir: opts.Dir, opts: opts, obs: obs}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, false, fmt.Errorf("live: wal dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(opts.Dir, name)
		if e.IsDir() {
			if name == "resume" {
				if err := os.RemoveAll(path); err != nil {
					return nil, false, fmt.Errorf("live: wal upgrade: %w", err)
				}
				upgraded = true
			}
			continue
		}
		if stem, ok := strings.CutSuffix(name, ".inc"); ok {
			name = stem + segmentSuffix
			renamed := filepath.Join(opts.Dir, name)
			if err := os.Rename(path, renamed); err != nil {
				return nil, false, fmt.Errorf("live: wal upgrade: %w", err)
			}
			path, upgraded = renamed, true
		}
		stem, ok := strings.CutSuffix(name, segmentSuffix)
		if !ok {
			continue
		}
		first, err := strconv.ParseUint(stem, 10, 64)
		if err != nil {
			return nil, false, fmt.Errorf("live: wal segment %q: bad name", name)
		}
		info, err := os.Stat(path)
		if err != nil {
			return nil, false, err
		}
		d.sealed = append(d.sealed, segmentInfo{path: path, firstSeq: first, size: info.Size()})
	}
	sort.Slice(d.sealed, func(i, j int) bool { return d.sealed[i].firstSeq < d.sealed[j].firstSeq })
	return d, upgraded, nil
}

func segmentPath(dir string, firstSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d%s", firstSeq, segmentSuffix))
}

// syncDir fsyncs a directory, making the creations, renames and deletions
// inside it durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// createSegment creates the segment that will hold nextSeq onward, writes
// its header, and syncs the directory so the entry survives a power cut
// together with the acknowledged records it is about to hold. A failure
// leaves no file behind, so the caller may simply try again.
func createSegment(dir string, nextSeq uint64) (*os.File, segmentInfo, error) {
	path := segmentPath(dir, nextSeq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, segmentInfo{}, err
	}
	_, err = f.WriteString(segmentMagic)
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		_ = f.Close()
		_ = os.Remove(path)
		return nil, segmentInfo{}, err
	}
	return f, segmentInfo{path: path, firstSeq: nextSeq, size: int64(len(segmentMagic))}, nil
}

// encodeRecord appends one framed record (header + payload) to buf. The
// name-length field is biased by one: 0 means "unnamed" (replay trusts the
// raw label id), n+1 means a name of n bytes follows — an interned empty
// name is a real label and must survive the round trip distinct from "no
// name".
func encodeRecord(buf []byte, r Record) []byte {
	var name string
	nameField := uint16(0)
	if r.Mut.LabelNamed {
		name = r.Mut.LabelName
		nameField = uint16(len(name)) + 1
	}
	payloadLen := minRecordLen + len(name)
	start := len(buf)
	buf = append(buf, make([]byte, frameHeaderLen+payloadLen)...)
	payload := buf[start+frameHeaderLen:]
	le := binary.LittleEndian
	le.PutUint64(payload[0:], r.Seq)
	le.PutUint64(payload[8:], r.Epoch)
	payload[16] = byte(r.Mut.Op)
	le.PutUint32(payload[17:], uint32(r.Mut.Src))
	le.PutUint32(payload[21:], uint32(r.Mut.Dst))
	label := uint16(r.Mut.VertexLabel)
	if r.Mut.Op != OpAddVertex {
		label = uint16(r.Mut.EdgeLabel)
	}
	le.PutUint16(payload[25:], label)
	le.PutUint16(payload[27:], nameField)
	copy(payload[minRecordLen:], name)
	le.PutUint32(buf[start:], uint32(payloadLen))
	le.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// decodeRecord parses one payload (already CRC-verified).
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) < minRecordLen {
		return Record{}, fmt.Errorf("payload too short (%d bytes)", len(payload))
	}
	le := binary.LittleEndian
	var r Record
	r.Seq = le.Uint64(payload[0:])
	r.Epoch = le.Uint64(payload[8:])
	r.Mut.Op = Op(payload[16])
	if r.Mut.Op > OpDeleteEdge {
		return Record{}, fmt.Errorf("unknown op %d", payload[16])
	}
	r.Mut.Src = le.Uint32(payload[17:])
	r.Mut.Dst = le.Uint32(payload[21:])
	label := le.Uint16(payload[25:])
	if r.Mut.Op == OpAddVertex {
		r.Mut.VertexLabel = label
	} else {
		r.Mut.EdgeLabel = label
	}
	nameField := int(le.Uint16(payload[27:]))
	if nameField == 0 {
		if len(payload) != minRecordLen {
			return Record{}, fmt.Errorf("payload length %d for unnamed record", len(payload))
		}
		return r, nil
	}
	if len(payload) != minRecordLen+nameField-1 {
		return Record{}, fmt.Errorf("payload length %d does not match name length %d", len(payload), nameField-1)
	}
	r.Mut.LabelName = string(payload[minRecordLen:])
	r.Mut.LabelNamed = true
	return r, nil
}

// scanSegment streams the records of one segment image: the only reader
// of the frame format. It returns the byte offset of the first invalid
// frame together with errTornTail when the image ends mid-frame or a frame
// fails its length, checksum or payload checks; validEnd is then the
// truncation point that keeps the longest valid prefix (0 when even the
// header is incomplete). No frame makes it allocate more than
// maxRecordLen.
func scanSegment(r io.Reader, fn func(Record) error) (validEnd int64, err error) {
	magic := make([]byte, len(segmentMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return 0, fmt.Errorf("%w: missing segment header", errTornTail)
	}
	if string(magic) != segmentMagic {
		return 0, fmt.Errorf("bad segment magic %q", magic)
	}
	offset := int64(len(segmentMagic))
	header := make([]byte, frameHeaderLen)
	var payload []byte
	for {
		if _, err := io.ReadFull(r, header); err != nil {
			if err == io.EOF {
				return offset, nil // clean end
			}
			return offset, errTornTail // partial frame header
		}
		length := binary.LittleEndian.Uint32(header[0:])
		crc := binary.LittleEndian.Uint32(header[4:])
		if length < minRecordLen || length > maxRecordLen {
			return offset, errTornTail
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			return offset, errTornTail // partial payload
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return offset, errTornTail
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return offset, errTornTail
		}
		if err := fn(rec); err != nil {
			return offset, err
		}
		offset += frameHeaderLen + int64(length)
	}
}

// replay streams every record with Seq > afterSeq, in order, across the
// segments. A torn tail in the final segment is cut away (reported via
// torn): the file is truncated back to its last whole record, or removed
// when the crash hit before even its header was written, so the appends
// that follow always land behind a valid header. Any invalid frame
// earlier is corruption and fails recovery. Sequence numbers are verified
// gapless from afterSeq on and across file boundaries.
func (d *diskWAL) replay(afterSeq uint64, fn func(Record) error) (replayed int, torn bool, err error) {
	prevSeq := uint64(0)
	for i, seg := range d.sealed {
		base := filepath.Base(seg.path)
		f, err := os.Open(seg.path)
		if err != nil {
			return replayed, false, err
		}
		validEnd, segErr := scanSegment(bufio.NewReader(f), func(rec Record) error {
			if prevSeq == 0 && rec.Seq > afterSeq+1 {
				return fmt.Errorf("sequence gap: the log starts at %d but the checkpoint ends at %d", rec.Seq, afterSeq)
			}
			if prevSeq != 0 && rec.Seq != prevSeq+1 {
				return fmt.Errorf("sequence gap: %d follows %d", rec.Seq, prevSeq)
			}
			prevSeq = rec.Seq
			if rec.Seq <= afterSeq {
				return nil
			}
			replayed++
			return fn(rec)
		})
		_ = f.Close() // read-only handle
		if !errors.Is(segErr, errTornTail) {
			if segErr != nil {
				return replayed, false, fmt.Errorf("live: wal segment %s: %w", base, segErr)
			}
			continue
		}
		if i != len(d.sealed)-1 {
			return replayed, false, fmt.Errorf(
				"live: wal segment %s is corrupt mid-log (not a crash tail); refusing to recover a gapped history", base)
		}
		if validEnd == 0 {
			err = os.Remove(seg.path)
			d.sealed = d.sealed[:i]
		} else {
			err = os.Truncate(seg.path, validEnd)
			d.sealed[i].size = validEnd
		}
		if err != nil {
			return replayed, false, fmt.Errorf("live: cut torn tail: %w", err)
		}
		return replayed, true, nil
	}
	return replayed, false, nil
}

// openAppend makes the WAL writable: the last scanned segment is reopened
// for appending (or a fresh one is created at nextSeq).
func (d *diskWAL) openAppend(nextSeq uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.sealed); n > 0 {
		info := d.sealed[n-1]
		f, err := os.OpenFile(info.path, os.O_RDWR, 0)
		if err != nil {
			return err
		}
		if _, err := f.Seek(info.size, io.SeekStart); err != nil {
			_ = f.Close()
			return err
		}
		d.cur, d.curInfo = f, info
		d.sealed = d.sealed[:n-1]
	} else {
		f, info, err := createSegment(d.dir, nextSeq)
		if err != nil {
			return err
		}
		d.cur, d.curInfo = f, info
	}
	return nil
}

// append writes one committed batch as a single write(2), syncs per
// policy, and rotates the segment when it outgrew SegmentSize. Called
// under the graph's writer lock, before the batch becomes visible: an
// error here aborts the commit, so the append is all-or-nothing on disk.
// When the write or its sync fails, whatever reached the file is cut away
// again — otherwise the next commit would reuse the seq behind a stale or
// torn frame and a restart would refuse, or silently drop, acknowledged
// batches. If that rollback fails too the log latches shut and every
// later commit is refused with the cause.
func (d *diskWAL) append(recs []Record) error {
	start := time.Now()
	var buf []byte
	for _, r := range recs {
		if r.Mut.LabelNamed && len(r.Mut.LabelName) > 0xFFFE {
			return fmt.Errorf("live: label name of %d bytes exceeds the WAL record limit", len(r.Mut.LabelName))
		}
		buf = encodeRecord(buf, r)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.failed != nil {
		return d.failed
	}
	if d.curInfo.size >= d.opts.SegmentSize && d.curInfo.firstSeq < recs[0].Seq {
		// The active segment is full and not empty: the rotation after the
		// previous batch failed, or a restart reopened a full segment.
		// Nothing of this batch is on disk yet, so refusing it is honest.
		if err := d.rotateLocked(recs[0].Seq); err != nil {
			return fmt.Errorf("live: wal rotate: %w", err)
		}
	}
	if err := d.writeLocked(buf); err != nil {
		rerr := d.cur.Truncate(d.curInfo.size)
		if rerr == nil {
			_, rerr = d.cur.Seek(d.curInfo.size, io.SeekStart)
		}
		if rerr != nil {
			d.failed = fmt.Errorf("live: wal latched shut: a refused append could not be rolled back (%v) after: %w", rerr, err)
		}
		return err
	}
	d.curInfo.size += int64(len(buf))
	if d.curInfo.size >= d.opts.SegmentSize {
		// The batch is durable, so a rotation failure must not fail the
		// commit (a restart would resurrect it): the oversized segment
		// stays active and the next append retries.
		_ = d.rotateLocked(recs[len(recs)-1].Seq + 1)
	}
	observe(d.obs.WALAppend, start)
	return nil
}

// writeLocked writes one encoded batch to the active segment and syncs it
// when the policy is FsyncAlways.
func (d *diskWAL) writeLocked(buf []byte) error {
	if _, err := d.cur.Write(buf); err != nil {
		return fmt.Errorf("live: wal append: %w", err)
	}
	if d.opts.Fsync != FsyncAlways {
		return nil
	}
	start := time.Now()
	if err := d.cur.Sync(); err != nil {
		return fmt.Errorf("live: wal fsync: %w", err)
	}
	d.fsyncs++
	observe(d.obs.WALFsync, start)
	return nil
}

// rotateLocked seals the active segment (sync + close) and opens a fresh
// one whose name is the next sequence number to be written. On error the
// active segment is untouched and still writable.
func (d *diskWAL) rotateLocked(nextSeq uint64) error {
	if err := d.cur.Sync(); err != nil {
		return err
	}
	d.fsyncs++
	f, info, err := createSegment(d.dir, nextSeq)
	if err != nil {
		return err
	}
	_ = d.cur.Close() // synced above: a close error has nothing left to lose
	d.sealed = append(d.sealed, d.curInfo)
	d.cur, d.curInfo = f, info
	return nil
}

// coveredLocked counts the leading sealed segments whose records are all
// <= seq. A sealed segment holds [firstSeq, next file's firstSeq).
func (d *diskWAL) coveredLocked(seq uint64) int {
	for i := range d.sealed {
		upper := d.curInfo.firstSeq
		if i+1 < len(d.sealed) {
			upper = d.sealed[i+1].firstSeq
		}
		if upper-1 > seq {
			return i
		}
	}
	return len(d.sealed)
}

// needsCheckpoint reports whether more than KeepSegments sealed segments
// sit wholly below the resumable-from watermark: a checkpoint there makes
// all of them deletable.
func (d *diskWAL) needsCheckpoint(resumableFrom uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.coveredLocked(resumableFrom) > d.opts.KeepSegments
}

// checkpoint atomically replaces the checkpoint file with st — the state
// at exactly (seq, epoch) — and then deletes every sealed segment whose
// records it covers. The rename is made durable before the first delete,
// so no power cut can keep the deletions and lose the checkpoint they
// rely on. st must be private to the caller (Store.Encode compacts in
// place).
func (d *diskWAL) checkpoint(st *ccsr.Store, seq, epoch uint64) error {
	start := time.Now()
	tmp := filepath.Join(d.dir, checkpointName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	header := make([]byte, len(checkpointMagic)+16)
	copy(header, checkpointMagic)
	binary.LittleEndian.PutUint64(header[len(checkpointMagic):], seq)
	binary.LittleEndian.PutUint64(header[len(checkpointMagic)+8:], epoch)
	if _, err = f.Write(header); err == nil {
		err = st.Encode(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, checkpointName)); err != nil {
		return err
	}
	if err := syncDir(d.dir); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkpoints++
	for n := d.coveredLocked(seq); n > 0; n-- {
		if err := os.Remove(d.sealed[0].path); err != nil {
			return err
		}
		d.sealed = d.sealed[1:]
	}
	observe(d.obs.WALCheckpoint, start)
	return nil
}

// loadCheckpoint decodes the checkpoint file, if present.
func (d *diskWAL) loadCheckpoint() (st *ccsr.Store, seq, epoch uint64, ok bool, err error) {
	f, err := os.Open(filepath.Join(d.dir, checkpointName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, 0, false, nil
	}
	if err != nil {
		return nil, 0, 0, false, err
	}
	defer f.Close()
	header := make([]byte, len(checkpointMagic)+16)
	if _, err := io.ReadFull(f, header); err != nil {
		return nil, 0, 0, false, fmt.Errorf("live: checkpoint header: %w", err)
	}
	if string(header[:len(checkpointMagic)]) != checkpointMagic {
		return nil, 0, 0, false, fmt.Errorf("live: bad checkpoint magic")
	}
	seq = binary.LittleEndian.Uint64(header[len(checkpointMagic):])
	epoch = binary.LittleEndian.Uint64(header[len(checkpointMagic)+8:])
	st, err = ccsr.Decode(f)
	if err != nil {
		return nil, 0, 0, false, fmt.Errorf("live: checkpoint store: %w", err)
	}
	return st, seq, epoch, true, nil
}

// diskStats reports segment count (sealed + active), their total bytes,
// and the fsync/checkpoint counters.
func (d *diskWAL) diskStats() (segments int, bytes int64, fsyncs, checkpoints uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	segments = len(d.sealed)
	for _, s := range d.sealed {
		bytes += s.size
	}
	if d.cur != nil {
		segments++
		bytes += d.curInfo.size
	}
	return segments, bytes, d.fsyncs, d.checkpoints
}

// close syncs and closes the active segment. Idempotent.
func (d *diskWAL) close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.cur == nil {
		return nil
	}
	if err := d.cur.Sync(); err != nil {
		_ = d.cur.Close()
		return err
	}
	d.fsyncs++
	return d.cur.Close()
}
