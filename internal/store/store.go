// Package store is arteryd's durability layer: a write-ahead-logged job
// store that survives crashes and restarts. Every accepted job, every
// merged per-shot event, a checkpoint every N merged shots and every
// terminal result is appended to an on-disk segment journal before (or as)
// it becomes externally visible, so that
//
//   - a restarted server serves finished jobs (status, result and full
//     event-stream replay) straight from disk, and
//   - a job killed mid-run resumes at its last durable shot and — because
//     the engine draws per-shot RNG streams by global index and every
//     result aggregate is a replayable fold over the event stream — the
//     stitched result and event stream are byte-identical to an
//     uninterrupted run.
//
// # Journal format
//
// A data dir holds numbered segment files (segment-%08d.wal), each
// beginning with an 8-byte magic header followed by framed records:
//
//	+----------------+----------------+===============+
//	| length (4B LE) | CRC32C (4B LE) | JSON payload  |
//	+----------------+----------------+===============+
//
// The CRC (Castagnoli) covers the payload. Appends go to the highest
// segment; once it exceeds the size cap the store rotates to a fresh one.
// Recovery scans segments in order, verifying every frame; a torn record
// at the tail of the final segment — the signature of a crash mid-write —
// is truncated away instead of failing recovery, while corruption in an
// earlier (sealed) segment is a hard error.
//
// Record payloads are one of four shapes, keyed by "t": "job" (the
// submitted request), "ev" (one merged shot event, with its per-stage
// latency deltas so results can be re-folded), "ckpt" (a durability
// barrier: every event up to N has been fsynced) and "end" (the terminal
// state and result).
//
// # Fsync policy
//
// FsyncAlways syncs after every record (strongest durability, slowest),
// FsyncInterval syncs on a background tick and at every checkpoint
// (bounded loss window — the default), FsyncNever leaves flushing to the
// OS (fastest; a power loss may drop the tail, which recovery then
// truncates). Checkpoint records force a sync under always and interval,
// which is what makes "resume from the last checkpoint" a guarantee
// rather than a hope.
//
// # Compaction
//
// Terminal jobs beyond the retention bound are dropped by a compaction
// pass that rewrites every retained record into fresh segments and then
// deletes the old ones. Compaction is crash-safe without atomic
// multi-file renames because recovery is idempotent: duplicate job
// records are ignored and duplicate events are deduplicated by their
// monotonically increasing shot index, so a crash that leaves both the
// old and the rewritten copies on disk recovers to the same state.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"artery/api"
	"artery/internal/trace"
)

// Policy selects when journal appends reach stable storage.
type Policy int

const (
	// FsyncInterval syncs dirty segments on a background tick and at
	// every checkpoint record (the default).
	FsyncInterval Policy = iota
	// FsyncAlways syncs after every appended record.
	FsyncAlways
	// FsyncNever never calls fsync; the OS flushes when it pleases.
	FsyncNever
)

// String renders the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParsePolicy maps the -fsync flag spellings onto policies.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "", "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (always|interval|never)", s)
}

// Config sizes a store. Zero values select the documented defaults; Dir
// is required.
type Config struct {
	// Dir is the data directory. Created (with parents) if absent.
	Dir string
	// SegmentBytes caps one segment file before rotation (default 64 MiB).
	SegmentBytes int64
	// Fsync selects the durability policy (default FsyncInterval).
	Fsync Policy
	// FsyncEvery is the interval policy's sync period (default 100ms).
	FsyncEvery time.Duration
	// Retain bounds the terminal jobs kept in the journal: beyond it (plus
	// a quarter of slack, so compaction amortizes) the oldest terminal
	// jobs are compacted away (default 4096).
	Retain int
}

func (c Config) withDefaults() Config {
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 64 << 20
	}
	if c.FsyncEvery == 0 {
		c.FsyncEvery = 100 * time.Millisecond
	}
	if c.Retain == 0 {
		c.Retain = 4096
	}
	return c
}

const (
	segMagic   = "ARTYWAL1"
	headerLen  = len(segMagic)
	frameLen   = 8 // 4B length + 4B CRC32C
	maxPayload = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// record is the JSON payload of one journal frame.
type record struct {
	T     string         `json:"t"` // "job" | "ev" | "ckpt" | "end"
	ID    string         `json:"id"`
	At    int64          `json:"at,omitempty"` // unix nanos (job, end)
	Req   *api.Request   `json:"req,omitempty"`
	Ev    *api.ShotEvent `json:"ev,omitempty"`
	N     int            `json:"n,omitempty"` // ckpt: events durable so far
	State string         `json:"state,omitempty"`
	Err   string         `json:"err,omitempty"`
	Res   *api.Result    `json:"res,omitempty"`
}

// loc addresses one framed record on disk.
type loc struct {
	seg int
	off int64
	n   int32
}

// jobState is the in-memory index of one journaled job.
type jobState struct {
	id          string
	req         api.Request
	submittedAt int64
	events      []loc
	lastShot    int // highest journaled event shot index (dedup guard)
	checkpoint  int
	state       string // "" while live
	errMsg      string
	result      *api.Result
	finishedAt  int64
}

func (js *jobState) terminal() bool { return js.state != "" }

// Store is a durable job journal. All appends are serialized by mu;
// reads address sealed bytes via ReadAt and need no lock beyond the
// index snapshot. Safe for concurrent use.
type Store struct {
	cfg Config

	mu      sync.Mutex
	seg     *os.File
	segIdx  int
	segSize int64
	dirty   bool
	closed  bool
	jobs    map[string]*jobState
	order   []string // ids in first-journaled order (compaction ordering)

	stopSync chan struct{}
	syncWG   sync.WaitGroup

	// Recovery tallies, surfaced as counters once Instrument is called.
	recoveredJobs  int
	truncatedTails int

	m storeMetrics
}

// storeMetrics are the journal instruments (nil-safe until Instrument).
type storeMetrics struct {
	appended      *trace.Counter
	fsyncs        *trace.Counter
	recovered     *trace.Counter
	truncated     *trace.Counter
	appendErrs    *trace.Counter
	compactions   *trace.Counter
	appendSeconds *trace.Histogram
}

// Open opens (creating if needed) the store rooted at cfg.Dir, scanning
// any existing journal: sealed segments are verified record by record, a
// torn tail on the final segment is truncated away, and the in-memory
// job index is rebuilt. The returned store is ready for appends.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: Dir is required")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		cfg:      cfg,
		jobs:     map[string]*jobState{},
		stopSync: make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	if cfg.Fsync == FsyncInterval {
		s.syncWG.Add(1)
		go s.syncLoop()
	}
	return s, nil
}

// syncLoop is the interval policy's background flusher.
func (s *Store) syncLoop() {
	defer s.syncWG.Done()
	t := time.NewTicker(s.cfg.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopSync:
			return
		case <-t.C:
			s.mu.Lock()
			s.syncLocked()
			s.mu.Unlock()
		}
	}
}

// syncLocked fsyncs the active segment if it has unsynced bytes.
func (s *Store) syncLocked() {
	if !s.dirty || s.seg == nil || s.closed {
		return
	}
	if err := s.seg.Sync(); err == nil {
		s.dirty = false
		s.m.fsyncs.Inc()
	}
}

// Close flushes and closes the journal. Further appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if s.seg != nil {
		if s.cfg.Fsync != FsyncNever {
			if serr := s.seg.Sync(); serr == nil {
				s.m.fsyncs.Inc()
			}
		}
		err = s.seg.Close()
		s.seg = nil
	}
	s.mu.Unlock()
	close(s.stopSync)
	s.syncWG.Wait()
	return err
}

// Instrument registers the store's counters and append-latency histogram
// on reg, retro-crediting the tallies of the recovery scan that ran in
// Open (before any registry existed).
func (s *Store) Instrument(reg *trace.Registry) {
	s.m = storeMetrics{
		appended:      reg.Counter("artery_store_records_appended_total", "journal records appended"),
		fsyncs:        reg.Counter("artery_store_fsyncs_total", "journal fsync calls"),
		recovered:     reg.Counter("artery_store_jobs_recovered_total", "jobs rebuilt from the journal at startup"),
		truncated:     reg.Counter("artery_store_truncated_tails_total", "torn tail records truncated during recovery"),
		appendErrs:    reg.Counter("artery_store_append_errors_total", "journal appends that failed (job kept running, durability degraded)"),
		compactions:   reg.Counter("artery_store_compactions_total", "journal compaction passes"),
		appendSeconds: reg.Histogram("artery_store_append_seconds", "journal append latency (marshal + write + policy fsync)", appendSecondsBuckets()),
	}
	s.m.recovered.Add(int64(s.recoveredJobs))
	s.m.truncated.Add(int64(s.truncatedTails))
}

// appendSecondsBuckets spans microsecond in-page-cache appends through
// multi-millisecond fsync-always appends on spinning disks.
func appendSecondsBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2,
	}
}

// segPath renders a segment file path.
func (s *Store) segPath(idx int) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("segment-%08d.wal", idx))
}

// segIndices lists the existing segment indices in ascending order.
func (s *Store) segIndices() ([]int, error) {
	ents, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []int
	for _, e := range ents {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "segment-%d.wal", &idx); err == nil &&
			e.Name() == fmt.Sprintf("segment-%08d.wal", idx) {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out, nil
}

// createSegment makes segment idx with its magic header and adopts it as
// the append target. Callers hold mu (or are single-threaded in Open).
func (s *Store) createSegment(idx int) error {
	f, err := os.OpenFile(s.segPath(idx), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if s.seg != nil {
		if s.cfg.Fsync != FsyncNever {
			s.seg.Sync()
		}
		s.seg.Close()
	}
	s.seg = f
	s.segIdx = idx
	s.segSize = int64(headerLen)
	s.dirty = s.cfg.Fsync != FsyncNever
	return nil
}

// frame renders one record as its on-disk frame.
func frame(rec record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, frameLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameLen:], payload)
	return buf, nil
}

// appendLocked writes one framed record to the active segment, returning
// its location. Rotation happens after the write so a record never
// straddles segments. Callers hold mu.
func (s *Store) appendLocked(rec record, syncNow bool) (loc, error) {
	if s.closed {
		return loc{}, fmt.Errorf("store: closed")
	}
	buf, err := frame(rec)
	if err != nil {
		s.m.appendErrs.Inc()
		return loc{}, fmt.Errorf("store: marshal: %w", err)
	}
	start := time.Now()
	l := loc{seg: s.segIdx, off: s.segSize, n: int32(len(buf))}
	if _, err := s.seg.Write(buf); err != nil {
		s.m.appendErrs.Inc()
		return loc{}, fmt.Errorf("store: append: %w", err)
	}
	s.segSize += int64(len(buf))
	switch {
	case s.cfg.Fsync == FsyncAlways, syncNow && s.cfg.Fsync == FsyncInterval:
		if err := s.seg.Sync(); err == nil {
			s.dirty = false
			s.m.fsyncs.Inc()
		}
	case s.cfg.Fsync == FsyncInterval:
		s.dirty = true
	}
	if s.segSize >= s.cfg.SegmentBytes {
		if err := s.createSegment(s.segIdx + 1); err != nil {
			s.m.appendErrs.Inc()
			return loc{}, err
		}
	}
	s.m.appendSeconds.Observe(time.Since(start).Seconds())
	s.m.appended.Inc()
	return l, nil
}

// JobSubmitted journals an accepted request. Call before acknowledging
// the submission (the 202): once the client holds the id, the job is
// durable.
func (s *Store) JobSubmitted(id string, req api.Request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		js = &jobState{id: id, req: req, lastShot: req.ShotOffset - 1}
		s.jobs[id] = js
		s.order = append(s.order, id)
	}
	js.submittedAt = time.Now().UnixNano()
	_, err := s.appendLocked(record{T: "job", ID: id, At: js.submittedAt, Req: &req}, false)
	return err
}

// ShotEvent journals one merged per-shot event. Events must arrive in
// shot order (the engine's merge path guarantees it); they must carry
// their per-stage latency deltas so a recovered job's result can be
// re-folded bit-identically.
func (s *Store) ShotEvent(id string, ev api.ShotEvent) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("store: event for unknown job %q", id)
	}
	l, err := s.appendLocked(record{T: "ev", ID: id, Ev: &ev}, false)
	if err != nil {
		return err
	}
	js.events = append(js.events, l)
	js.lastShot = ev.Shot
	return nil
}

// Checkpoint journals a durability barrier: the first n events of the
// job are on stable storage once this returns (under the always and
// interval policies; never means never). Recovery resumes a killed job
// at its count of durable events, which this guarantees is at least the
// last checkpoint.
func (s *Store) Checkpoint(id string, n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("store: checkpoint for unknown job %q", id)
	}
	if _, err := s.appendLocked(record{T: "ckpt", ID: id, N: n}, true); err != nil {
		return err
	}
	if n > js.checkpoint {
		js.checkpoint = n
	}
	return nil
}

// Terminal journals a job's end state (and, for done jobs, its result),
// then compacts the journal if the retention bound is exceeded.
func (s *Store) Terminal(id, state, errMsg string, res *api.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("store: terminal record for unknown job %q", id)
	}
	if js.terminal() {
		return nil // idempotent: recovery may finalize a job twice
	}
	js.finishedAt = time.Now().UnixNano()
	if _, err := s.appendLocked(record{T: "end", ID: id, At: js.finishedAt, State: state, Err: errMsg, Res: res}, true); err != nil {
		return err
	}
	js.state, js.errMsg, js.result = state, errMsg, res
	if n := s.terminalCountLocked(); n >= s.cfg.Retain+s.cfg.Retain/4+1 {
		return s.compactLocked()
	}
	return nil
}

func (s *Store) terminalCountLocked() int {
	n := 0
	for _, js := range s.jobs {
		if js.terminal() {
			n++
		}
	}
	return n
}

// JobRecord is the index view of one journaled job.
type JobRecord struct {
	ID  string
	Req api.Request
	// Events is the number of durable per-shot events.
	Events int
	// Checkpoint is the highest journaled checkpoint (always <= Events
	// after recovery).
	Checkpoint int
	// State is "" while the job has no terminal record (it was live when
	// the process died, or still is).
	State  string
	Error  string
	Result *api.Result
	// SubmittedAt / FinishedAt bound the job's wall-clock life.
	SubmittedAt time.Time
	FinishedAt  time.Time
}

func (js *jobState) recordView() JobRecord {
	return JobRecord{
		ID:          js.id,
		Req:         js.req,
		Events:      len(js.events),
		Checkpoint:  js.checkpoint,
		State:       js.state,
		Error:       js.errMsg,
		Result:      js.result,
		SubmittedAt: time.Unix(0, js.submittedAt),
		FinishedAt:  time.Unix(0, js.finishedAt),
	}
}

// Jobs snapshots every journaled job in first-journaled order.
func (s *Store) Jobs() []JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobRecord, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].recordView())
	}
	return out
}

// Lookup returns the index view of one job.
func (s *Store) Lookup(id string) (JobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		return JobRecord{}, false
	}
	return js.recordView(), true
}

// Events reads a job's durable per-shot events starting at index from,
// in shot order, straight from the journal segments. The returned events
// carry their stage deltas (as journaled).
func (s *Store) Events(id string, from int) ([]api.ShotEvent, error) {
	s.mu.Lock()
	js, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("store: unknown job %q", id)
	}
	if from < 0 {
		from = 0
	}
	if from > len(js.events) {
		from = len(js.events)
	}
	locs := append([]loc(nil), js.events[from:]...)
	s.mu.Unlock()
	return s.readEvents(locs)
}

// readEvents reads the event records at locs, in order. Events calls it
// on a snapshot of a job's locations; compaction calls it holding mu,
// with appends frozen so no location can move underneath.
func (s *Store) readEvents(locs []loc) ([]api.ShotEvent, error) {
	out := make([]api.ShotEvent, 0, len(locs))
	var f *os.File
	fSeg := -1
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	for _, l := range locs {
		if l.seg != fSeg {
			if f != nil {
				f.Close()
			}
			var err error
			f, err = os.Open(s.segPath(l.seg))
			if err != nil {
				return nil, fmt.Errorf("store: %w", err)
			}
			fSeg = l.seg
		}
		buf := make([]byte, l.n)
		if _, err := f.ReadAt(buf, l.off); err != nil {
			return nil, fmt.Errorf("store: read: %w", err)
		}
		rec, n, err := decodeFrame(buf)
		if err == nil && n != len(buf) {
			err = errors.New("frame length mismatch")
		}
		if err != nil {
			return nil, fmt.Errorf("store: %v at segment %d offset %d", err, l.seg, l.off)
		}
		if rec.T != "ev" || rec.Ev == nil {
			return nil, fmt.Errorf("store: record at segment %d offset %d is %q, want ev", l.seg, l.off, rec.T)
		}
		out = append(out, *rec.Ev)
	}
	return out, nil
}

// decodeFrame verifies and decodes the frame at the start of b: its
// length against maxPayload and the bytes present, the CRC32C of its
// payload, and the payload's JSON. It returns the record and the
// frame's size on disk. The recovery scan and every read of a journaled
// event decode through it.
func decodeFrame(b []byte) (record, int, error) {
	if len(b) < frameLen {
		return record{}, 0, errors.New("short frame")
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	crc := binary.LittleEndian.Uint32(b[4:8])
	if n > maxPayload {
		return record{}, 0, fmt.Errorf("implausible payload length %d", n)
	}
	size := frameLen + int(n)
	if size > len(b) {
		return record{}, 0, errors.New("truncated payload")
	}
	payload := b[frameLen:size]
	if crc32.Checksum(payload, castagnoli) != crc {
		return record{}, 0, errors.New("CRC mismatch")
	}
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return record{}, 0, fmt.Errorf("undecodable payload: %v", err)
	}
	return rec, size, nil
}

// Compact drops the oldest terminal jobs beyond the retention bound,
// rewriting every retained record into fresh segments and deleting the
// old ones. Live (unfinished) jobs are always retained. Safe to call at
// any time; a crash mid-compaction recovers cleanly because recovery
// deduplicates replayed records.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	cut := s.terminalCountLocked() - s.cfg.Retain
	if cut <= 0 {
		return nil
	}
	drop := make(map[string]bool, cut)
	for _, id := range s.order {
		if cut == 0 {
			break
		}
		if s.jobs[id].terminal() {
			drop[id] = true
			cut--
		}
	}

	// Rewrite the keepers into fresh segments. Event payloads are read
	// back from the old segments before those are deleted.
	firstNew := s.segIdx + 1
	if err := s.createSegment(firstNew); err != nil {
		return err
	}
	keep := make([]string, 0, len(s.order)-len(drop))
	for _, id := range s.order {
		if drop[id] {
			continue
		}
		keep = append(keep, id)
		js := s.jobs[id]
		events, err := s.readEvents(js.events)
		if err != nil {
			return err
		}
		if _, err := s.appendLocked(record{T: "job", ID: id, At: js.submittedAt, Req: &js.req}, false); err != nil {
			return err
		}
		js.events = js.events[:0]
		for i := range events {
			l, err := s.appendLocked(record{T: "ev", ID: id, Ev: &events[i]}, false)
			if err != nil {
				return err
			}
			js.events = append(js.events, l)
		}
		if js.checkpoint > 0 {
			if _, err := s.appendLocked(record{T: "ckpt", ID: id, N: js.checkpoint}, false); err != nil {
				return err
			}
		}
		if js.terminal() {
			if _, err := s.appendLocked(record{T: "end", ID: id, At: js.finishedAt, State: js.state, Err: js.errMsg, Res: js.result}, false); err != nil {
				return err
			}
		}
	}
	s.syncLocked()
	if s.cfg.Fsync == FsyncNever {
		// Deleting the only copy of the old records demands the new copy
		// be durable first, whatever the append policy says.
		if err := s.seg.Sync(); err == nil {
			s.m.fsyncs.Inc()
		}
	}
	for idx := firstNew - 1; ; idx-- {
		path := s.segPath(idx)
		if _, err := os.Stat(path); err != nil {
			break
		}
		os.Remove(path)
	}
	for id := range drop {
		delete(s.jobs, id)
	}
	s.order = keep
	s.m.compactions.Inc()
	return nil
}

// RecoveredJobs reports how many jobs the opening scan rebuilt.
func (s *Store) RecoveredJobs() int { return s.recoveredJobs }

// TruncatedTails reports how many torn tail records the opening scan
// truncated away.
func (s *Store) TruncatedTails() int { return s.truncatedTails }

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.cfg.Dir }
