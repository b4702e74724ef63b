package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"artery/api"
	"artery/internal/trace"
)

// testReq is a minimal valid request for journaling tests (the store
// never interprets it beyond round-tripping the JSON).
func testReq(shots int) api.Request {
	return api.Request{Workload: "qrw", Param: 4, Shots: shots, Seed: 7}
}

// testEvent builds a deterministic per-shot event with stage deltas, as
// the merge path journals them.
func testEvent(shot int) api.ShotEvent {
	f := 0.5 + float64(shot%7)/100
	return api.ShotEvent{
		Shot:      shot,
		LatencyNs: 100 + float64(shot),
		Fidelity:  &f,
		Sites:     3,
		Commits:   2,
		Correct:   1,
		Stages: []api.StageDelta{
			{Stage: "readout", Ns: 40 + float64(shot)},
			{Stage: "predict", Ns: 5},
		},
	}
}

func openStore(t testing.TB, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", cfg.Dir, err)
	}
	return s
}

// journalJob writes one job with n events (and optionally a terminal
// record) through the public API.
func journalJob(t testing.TB, s *Store, id string, n int, done bool) {
	t.Helper()
	if err := s.JobSubmitted(id, testReq(n)); err != nil {
		t.Fatalf("JobSubmitted(%s): %v", id, err)
	}
	for i := 0; i < n; i++ {
		if err := s.ShotEvent(id, testEvent(i)); err != nil {
			t.Fatalf("ShotEvent(%s, %d): %v", id, i, err)
		}
	}
	if done {
		res := &api.Result{Workload: "QRW-4", Controller: "ARTERY", Shots: n, Accuracy: 1}
		if err := s.Terminal(id, "done", "", res); err != nil {
			t.Fatalf("Terminal(%s): %v", id, err)
		}
	}
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir})
	journalJob(t, s, "job-1", 5, true)
	journalJob(t, s, "job-2", 3, false)
	if err := s.Checkpoint("job-2", 2); err != nil {
		t.Fatal(err)
	}
	want1, _ := s.Events("job-1", 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, Config{Dir: dir})
	defer s2.Close()
	if got := s2.RecoveredJobs(); got != 2 {
		t.Fatalf("recovered %d jobs, want 2", got)
	}
	rec1, ok := s2.Lookup("job-1")
	if !ok || rec1.State != "done" || rec1.Events != 5 || rec1.Result == nil || rec1.Result.Shots != 5 {
		t.Fatalf("job-1 after reopen: %+v (ok=%v)", rec1, ok)
	}
	rec2, ok := s2.Lookup("job-2")
	if !ok || rec2.State != "" || rec2.Events != 3 || rec2.Checkpoint != 2 {
		t.Fatalf("job-2 after reopen: %+v (ok=%v)", rec2, ok)
	}
	got1, err := s2.Events("job-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want1)
	b, _ := json.Marshal(got1)
	if !bytes.Equal(a, b) {
		t.Errorf("job-1 events drifted across reopen:\nbefore: %s\nafter:  %s", a, b)
	}
	// The reopened store appends where the old one left off.
	if err := s2.ShotEvent("job-2", testEvent(3)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// corruptTail appends raw garbage to the newest segment, simulating a
// crash mid-write (a torn frame).
func corruptTail(t *testing.T, dir string, garbage []byte) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "segment-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return last
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir})
	journalJob(t, s, "job-1", 4, false)
	s.Close()

	// A partial frame: a plausible header promising more bytes than exist.
	corruptTail(t, dir, []byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x', 'y'})

	s2 := openStore(t, Config{Dir: dir})
	if s2.TruncatedTails() != 1 {
		t.Errorf("truncated %d tails, want 1", s2.TruncatedTails())
	}
	rec, ok := s2.Lookup("job-1")
	if !ok || rec.Events != 4 {
		t.Fatalf("job-1 after torn tail: %+v (ok=%v)", rec, ok)
	}
	// The truncated journal accepts appends and survives another reopen
	// (double-restart idempotence over a repaired tail).
	if err := s2.ShotEvent("job-1", testEvent(4)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openStore(t, Config{Dir: dir})
	defer s3.Close()
	if rec, _ := s3.Lookup("job-1"); rec.Events != 5 {
		t.Errorf("job-1 after repair + append + reopen: %d events, want 5", rec.Events)
	}
	if s3.TruncatedTails() != 0 {
		t.Errorf("second recovery truncated %d tails, want 0", s3.TruncatedTails())
	}
}

func TestCRCCorruptionTruncatesFinalSegment(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir})
	journalJob(t, s, "job-1", 6, false)
	s.Close()

	// Flip one payload byte of the fourth event record: recovery must keep
	// everything before it and drop it plus the records after it.
	segs, _ := filepath.Glob(filepath.Join(dir, "segment-*.wal"))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(data, []byte(`"shot":3`))
	if idx < 0 {
		t.Fatal("marker record not found")
	}
	data[idx+7] ^= 0x01
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, Config{Dir: dir})
	defer s2.Close()
	if s2.TruncatedTails() != 1 {
		t.Errorf("truncated %d tails, want 1", s2.TruncatedTails())
	}
	rec, ok := s2.Lookup("job-1")
	if !ok || rec.Events != 3 {
		t.Fatalf("after CRC corruption at event 3: %+v (ok=%v), want 3 events", rec, ok)
	}
	evs, err := s2.Events("job-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs {
		if ev.Shot != i {
			t.Errorf("event %d carries shot %d", i, ev.Shot)
		}
	}
}

func TestCorruptSealedSegmentIsHardError(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation, sealing early segments.
	s := openStore(t, Config{Dir: dir, SegmentBytes: 256})
	journalJob(t, s, "job-1", 20, true)
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "segment-*.wal"))
	if len(segs) < 3 {
		t.Fatalf("only %d segments; rotation did not happen", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil || !strings.Contains(err.Error(), "sealed") {
		t.Fatalf("Open over a corrupt sealed segment: err = %v, want sealed-segment error", err)
	}
}

func TestRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir, SegmentBytes: 512})
	journalJob(t, s, "job-1", 40, true)
	want, _ := s.Events("job-1", 0)
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "segment-*.wal"))
	if len(segs) < 2 {
		t.Fatalf("only %d segments; rotation did not happen", len(segs))
	}
	s2 := openStore(t, Config{Dir: dir, SegmentBytes: 512})
	defer s2.Close()
	got, err := s2.Events("job-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("events drifted across a segment-spanning reopen")
	}
	// Partial reads honor the from cursor across the segment boundary.
	tail, err := s2.Events("job-1", 35)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 5 || tail[0].Shot != 35 {
		t.Errorf("Events(from=35): %d events starting at shot %v", len(tail), tail[0].Shot)
	}
}

func TestCompactionDropsOldTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir, Retain: 2, SegmentBytes: 1 << 20})
	for i := 1; i <= 6; i++ {
		journalJob(t, s, "job-"+string(rune('0'+i)), 3, true)
	}
	journalJob(t, s, "job-live", 2, false)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup("job-1"); ok {
		t.Error("oldest terminal job survived compaction")
	}
	if _, ok := s.Lookup("job-6"); !ok {
		t.Error("newest terminal job compacted away")
	}
	if rec, ok := s.Lookup("job-live"); !ok || rec.Events != 2 || rec.State != "" {
		t.Errorf("live job after compaction: %+v (ok=%v)", rec, ok)
	}
	s.Close()
	// The compacted journal recovers to the same state.
	s2 := openStore(t, Config{Dir: dir, Retain: 2})
	defer s2.Close()
	if got := len(s2.Jobs()); got != 3 {
		t.Errorf("recovered %d jobs after compaction, want 3 (2 retained + 1 live)", got)
	}
	evs, err := s2.Events("job-6", 0)
	if err != nil || len(evs) != 3 {
		t.Errorf("job-6 events after compaction reopen: %d (%v)", len(evs), err)
	}
}

func TestAutoCompactionOnTerminal(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir, Retain: 4})
	defer s.Close()
	for i := 0; i < 12; i++ {
		journalJob(t, s, "job-"+string(rune('a'+i)), 1, true)
	}
	// Retention 4 + slack 1 + 1 = 6 triggers the pass; the population must
	// never exceed the trigger threshold.
	if n := len(s.Jobs()); n > 6 {
		t.Errorf("%d jobs retained, want <= 6 (retain=4 plus slack)", n)
	}
}

func TestDoubleRestartIdempotence(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir})
	journalJob(t, s, "job-1", 8, true)
	journalJob(t, s, "job-2", 4, false)
	s.Close()

	var snaps [][]JobRecord
	for i := 0; i < 3; i++ {
		si := openStore(t, Config{Dir: dir})
		snaps = append(snaps, si.Jobs())
		si.Close()
	}
	for i := 1; i < len(snaps); i++ {
		a, _ := json.Marshal(snaps[0])
		b, _ := json.Marshal(snaps[i])
		if !bytes.Equal(a, b) {
			t.Errorf("restart %d drifted:\nfirst: %s\nlater: %s", i, a, b)
		}
	}
}

// TestUndeclaredEventsDropped: event records whose job record never made
// it to disk (the job was never acknowledged) are dropped at recovery —
// no durability promise was made for that id.
func TestUndeclaredEventsDropped(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir})
	journalJob(t, s, "job-1", 2, false)
	s.Close()

	// Hand-craft a valid event frame for an id with no job record.
	ev := testEvent(0)
	buf, err := frame(record{T: "ev", ID: "job-ghost", Ev: &ev})
	if err != nil {
		t.Fatal(err)
	}
	corruptTail(t, dir, buf)

	s2 := openStore(t, Config{Dir: dir})
	defer s2.Close()
	if _, ok := s2.Lookup("job-ghost"); ok {
		t.Error("undeclared job resurrected from orphan events")
	}
	if rec, _ := s2.Lookup("job-1"); rec.Events != 2 {
		t.Errorf("declared job lost events: %d, want 2", rec.Events)
	}
}

// TestRecoveryDeduplicatesReplayedRecords: a crash mid-compaction leaves
// both the old records and their rewritten copies; replay must converge
// to one copy (events deduped by shot, first terminal record wins).
func TestRecoveryDeduplicatesReplayedRecords(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir})
	journalJob(t, s, "job-1", 3, true)
	s.Close()

	// Append duplicates of the job, its events and its end record — the
	// crash-mid-compaction signature.
	req := testReq(3)
	var dup []byte
	for _, rec := range []record{
		{T: "job", ID: "job-1", Req: &req},
		func() record { e := testEvent(0); return record{T: "ev", ID: "job-1", Ev: &e} }(),
		func() record { e := testEvent(1); return record{T: "ev", ID: "job-1", Ev: &e} }(),
		{T: "end", ID: "job-1", State: "failed", Err: "imposter"},
	} {
		b, err := frame(rec)
		if err != nil {
			t.Fatal(err)
		}
		dup = append(dup, b...)
	}
	corruptTail(t, dir, dup)

	s2 := openStore(t, Config{Dir: dir})
	defer s2.Close()
	rec, ok := s2.Lookup("job-1")
	if !ok || rec.Events != 3 || rec.State != "done" || rec.Error != "" {
		t.Fatalf("replayed duplicates changed the job: %+v (ok=%v)", rec, ok)
	}
}

func TestCheckpointClampedToDurableEvents(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir})
	journalJob(t, s, "job-1", 3, false)
	// A checkpoint claiming more events than the journal holds (possible
	// if event frames past it were torn away) must clamp at recovery.
	if err := s.Checkpoint("job-1", 99); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openStore(t, Config{Dir: dir})
	defer s2.Close()
	if rec, _ := s2.Lookup("job-1"); rec.Checkpoint != 3 {
		t.Errorf("checkpoint %d after recovery, want clamped to 3", rec.Checkpoint)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		err  bool
	}{
		{"always", FsyncAlways, false},
		{"interval", FsyncInterval, false},
		{"", FsyncInterval, false},
		{"never", FsyncNever, false},
		{"sometimes", 0, true},
	} {
		p, err := ParsePolicy(tc.in)
		if (err != nil) != tc.err || (err == nil && p != tc.want) {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v (err=%v)", tc.in, p, err, tc.want, tc.err)
		}
	}
	if FsyncAlways.String() != "always" || FsyncInterval.String() != "interval" || FsyncNever.String() != "never" {
		t.Error("Policy.String does not round-trip the flag spellings")
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, p := range []Policy{FsyncAlways, FsyncInterval, FsyncNever} {
		dir := t.TempDir()
		s := openStore(t, Config{Dir: dir, Fsync: p})
		journalJob(t, s, "job-1", 5, true)
		s.Close()
		s2 := openStore(t, Config{Dir: dir, Fsync: p})
		if rec, ok := s2.Lookup("job-1"); !ok || rec.Events != 5 || rec.State != "done" {
			t.Errorf("fsync=%s: %+v (ok=%v)", p, rec, ok)
		}
		s2.Close()
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open without Dir succeeded")
	}
}

func TestEventsUnknownJob(t *testing.T) {
	s := openStore(t, Config{Dir: t.TempDir()})
	defer s.Close()
	if _, err := s.Events("job-nope", 0); err == nil {
		t.Error("Events for unknown job succeeded")
	}
	if err := s.ShotEvent("job-nope", testEvent(0)); err == nil {
		t.Error("ShotEvent for unknown job succeeded")
	}
	if err := s.Checkpoint("job-nope", 1); err == nil {
		t.Error("Checkpoint for unknown job succeeded")
	}
	if err := s.Terminal("job-nope", "done", "", nil); err == nil {
		t.Error("Terminal for unknown job succeeded")
	}
}

// TestDecodeFrame pins each check of the one frame decoder that the
// recovery scan and every event read go through.
func TestDecodeFrame(t *testing.T) {
	ev := testEvent(3)
	good, err := frame(record{T: "ev", ID: "job-1", Ev: &ev})
	if err != nil {
		t.Fatal(err)
	}
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }
	oversized := clone(good)
	binary.LittleEndian.PutUint32(oversized[0:4], maxPayload+1)
	flipped := clone(good)
	flipped[len(flipped)-2] ^= 0x01
	garbage := []byte("{not json")
	badJSON := make([]byte, frameLen+len(garbage))
	binary.LittleEndian.PutUint32(badJSON[0:4], uint32(len(garbage)))
	binary.LittleEndian.PutUint32(badJSON[4:8], crc32.Checksum(garbage, castagnoli))
	copy(badJSON[frameLen:], garbage)

	for _, tc := range []struct {
		name string
		b    []byte
		want string // error substring; empty for a good frame
	}{
		{"valid", good, ""},
		{"next-frame-follows", append(clone(good), good...), ""},
		{"short-header", good[:frameLen-1], "short frame"},
		{"implausible-length", oversized, "implausible payload length"},
		{"truncated-payload", good[:len(good)-1], "truncated payload"},
		{"crc-mismatch", flipped, "CRC mismatch"},
		{"undecodable-json", badJSON, "undecodable payload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, n, err := decodeFrame(tc.b)
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err = %v, want one containing %q", err, tc.want)
				}
				if n != 0 {
					t.Fatalf("a rejected frame reported size %d", n)
				}
				return
			}
			if err != nil {
				t.Fatalf("good frame rejected: %v", err)
			}
			if n != len(good) {
				t.Fatalf("size = %d, want %d", n, len(good))
			}
			if rec.T != "ev" || rec.ID != "job-1" || rec.Ev == nil || !reflect.DeepEqual(*rec.Ev, ev) {
				t.Fatalf("decoded %+v, want the framed event", rec)
			}
		})
	}
}

// TestReadEventsRejectsOtherRecords: the event reader shared by Events
// and compaction accepts only "ev" records, so a location that points at
// any other record is an error rather than a zero event.
func TestReadEventsRejectsOtherRecords(t *testing.T) {
	s := openStore(t, Config{Dir: t.TempDir(), Fsync: FsyncNever})
	defer s.Close()
	journalJob(t, s, "job-1", 1, false)
	data, err := os.ReadFile(s.segPath(1))
	if err != nil {
		t.Fatal(err)
	}
	// The segment opens with the job record, then the job's one event.
	_, jobLen, err := decodeFrame(data[headerLen:])
	if err != nil {
		t.Fatal(err)
	}
	_, evLen, err := decodeFrame(data[headerLen+jobLen:])
	if err != nil {
		t.Fatal(err)
	}
	jobLoc := loc{seg: 1, off: int64(headerLen), n: int32(jobLen)}
	evLoc := loc{seg: 1, off: int64(headerLen + jobLen), n: int32(evLen)}
	if _, err := s.readEvents([]loc{jobLoc}); err == nil || !strings.Contains(err.Error(), "want ev") {
		t.Fatalf("job record read as an event: err = %v", err)
	}
	events, err := s.readEvents([]loc{evLoc})
	if err != nil {
		t.Fatal(err)
	}
	if want := testEvent(0); len(events) != 1 || !reflect.DeepEqual(events[0], want) {
		t.Fatalf("read %+v, want [%+v]", events, want)
	}
}

func TestInstrumentCountsAppendsAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir})
	journalJob(t, s, "job-1", 4, false)
	s.Close()
	corruptTail(t, dir, []byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef})

	s2 := openStore(t, Config{Dir: dir, FsyncEvery: time.Millisecond})
	defer s2.Close()
	reg := trace.NewRegistry()
	s2.Instrument(reg)
	if err := s2.ShotEvent("job-1", testEvent(4)); err != nil {
		t.Fatal(err)
	}
	// The interval sync loop must flush the dirty segment.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		var buf bytes.Buffer
		reg.WriteProm(&buf)
		out := buf.String()
		if strings.Contains(out, "artery_store_records_appended_total 1") &&
			strings.Contains(out, "artery_store_jobs_recovered_total 1") &&
			strings.Contains(out, "artery_store_truncated_tails_total 1") &&
			strings.Contains(out, "artery_store_fsyncs_total") &&
			!strings.Contains(out, "artery_store_fsyncs_total 0\n") {
			if s2.Dir() != dir {
				t.Errorf("Dir() = %q, want %q", s2.Dir(), dir)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	var buf bytes.Buffer
	reg.WriteProm(&buf)
	t.Fatalf("instrumented counters never converged:\n%s", buf.String())
}

func TestBadMagicHeader(t *testing.T) {
	// A final segment too short to hold the magic header (crash during
	// segment creation) is truncated and recreated; a sealed one is fatal.
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir})
	journalJob(t, s, "job-1", 2, false)
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, "segment-00000002.wal"), []byte("AR"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, Config{Dir: dir})
	if rec, ok := s2.Lookup("job-1"); !ok || rec.Events != 2 {
		t.Fatalf("job-1 after short-header segment: %+v (ok=%v)", rec, ok)
	}
	if err := s2.ShotEvent("job-1", testEvent(2)); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	dir2 := t.TempDir()
	s3 := openStore(t, Config{Dir: dir2, SegmentBytes: 256})
	journalJob(t, s3, "job-1", 20, false)
	s3.Close()
	if err := os.WriteFile(filepath.Join(dir2, "segment-00000001.wal"), []byte("NOTAWAL!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir2}); err == nil {
		t.Fatal("Open over a sealed segment with bad magic succeeded")
	}
}

func TestClosedStoreRejectsAppends(t *testing.T) {
	s := openStore(t, Config{Dir: t.TempDir()})
	journalJob(t, s, "job-1", 1, false)
	s.Close()
	if err := s.ShotEvent("job-1", testEvent(1)); err == nil {
		t.Error("append after Close succeeded")
	}
}

// FuzzRecoverSegment writes arbitrary bytes after the magic header of a
// journal's only segment and opens the store. Open must not panic, nor
// fail: a bad frame in the final segment is a torn tail, truncated
// away. Every recovered event must read back through the frame decoder,
// so no frame whose CRC fails is indexed; and a second Open of the same
// directory must rebuild the same job table with no tail to truncate.
func FuzzRecoverSegment(f *testing.F) {
	dir := f.TempDir()
	s := openStore(f, Config{Dir: dir, Fsync: FsyncNever})
	journalJob(f, s, "job-1", 2, false)
	if err := s.Checkpoint("job-1", 2); err != nil {
		f.Fatal(err)
	}
	if err := s.Terminal("job-1", "done", "", &api.Result{Workload: "QRW-4", Shots: 2}); err != nil {
		f.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, "segment-00000001.wal")
	seg, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	body := seg[headerLen:]
	f.Add(body)
	f.Add(body[:len(body)-5])
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add([]byte{})

	// Executions within one fuzzing process run one at a time, so they
	// share the directory: each rewrites the only segment before opening.
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := os.WriteFile(path, append([]byte(segMagic), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Dir: dir, Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("Open over a damaged final segment: %v", err)
		}
		jobs := s.Jobs()
		for _, j := range jobs {
			events, err := s.Events(j.ID, 0)
			if err != nil {
				t.Fatalf("job %q: recovered event does not read back: %v", j.ID, err)
			}
			if len(events) != j.Events {
				t.Fatalf("job %q: %d events read back, %d indexed", j.ID, len(events), j.Events)
			}
			for i := 1; i < len(events); i++ {
				if events[i].Shot <= events[i-1].Shot {
					t.Fatalf("job %q: event %d has shot %d after shot %d", j.ID, i, events[i].Shot, events[i-1].Shot)
				}
			}
		}
		s.Close()

		again, err := Open(Config{Dir: dir, Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer again.Close()
		if n := again.TruncatedTails(); n != 0 {
			t.Fatalf("second Open truncated %d tails", n)
		}
		if got := again.Jobs(); !reflect.DeepEqual(got, jobs) {
			t.Fatalf("second Open rebuilt another job table\n got %+v\nwant %+v", got, jobs)
		}
	})
}
