package store

import (
	"fmt"
	"io"
	"os"
)

// recover rebuilds the in-memory index from the on-disk journal and
// leaves the store ready to append: segments are scanned in order, every
// frame is length- and CRC-verified, a torn record at the tail of the
// final segment is truncated away (the crash-mid-write signature), and
// the final segment is reopened for appending. An empty or absent
// journal starts fresh at segment 1.
//
// Replay is idempotent so that a crash mid-compaction (which leaves both
// the old records and their rewritten copies on disk) recovers to the
// same state as either copy alone: duplicate job records are ignored,
// events are deduplicated by their monotonically increasing shot index,
// and the first terminal record wins.
func (s *Store) recover() error {
	indices, err := s.segIndices()
	if err != nil {
		return err
	}
	if len(indices) == 0 {
		return s.createSegment(1)
	}

	// staging holds per-id state including ids whose "job" record never
	// made it to disk (events written in the window before the submit
	// record was journaled — those jobs were never acknowledged, so they
	// are dropped at the end of the scan).
	type staging struct {
		js       *jobState
		declared bool
	}
	seen := map[string]*staging{}
	var order []string
	get := func(id string) *staging {
		st, ok := seen[id]
		if !ok {
			st = &staging{js: &jobState{id: id, lastShot: -1 << 62}}
			seen[id] = st
			order = append(order, id)
		}
		return st
	}

	for i, idx := range indices {
		last := i == len(indices)-1
		err := s.scanSegment(idx, last, func(l loc, rec record) {
			st := get(rec.ID)
			js := st.js
			switch rec.T {
			case "job":
				if !st.declared && rec.Req != nil {
					st.declared = true
					js.req = *rec.Req
					js.submittedAt = rec.At
					if js.lastShot < rec.Req.ShotOffset-1 {
						js.lastShot = rec.Req.ShotOffset - 1
					}
				}
			case "ev":
				if rec.Ev != nil && rec.Ev.Shot > js.lastShot {
					js.events = append(js.events, l)
					js.lastShot = rec.Ev.Shot
				}
			case "ckpt":
				if rec.N > js.checkpoint {
					js.checkpoint = rec.N
				}
			case "end":
				if !js.terminal() {
					js.state, js.errMsg, js.result = rec.State, rec.Err, rec.Res
					js.finishedAt = rec.At
				}
			}
		})
		if err != nil {
			return err
		}
	}

	for _, id := range order {
		st := seen[id]
		if !st.declared {
			continue // never acknowledged: no durability promise to keep
		}
		// A checkpoint can never exceed what survived on disk.
		if st.js.checkpoint > len(st.js.events) {
			st.js.checkpoint = len(st.js.events)
		}
		s.jobs[id] = st.js
		s.order = append(s.order, id)
		s.recoveredJobs++
	}

	// Reopen the final segment for appending.
	lastIdx := indices[len(indices)-1]
	f, err := os.OpenFile(s.segPath(lastIdx), os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if info.Size() < int64(headerLen) {
		// The crash interrupted segment creation itself: rewrite the header.
		f.Close()
		return s.createSegment(lastIdx)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.seg = f
	s.segIdx = lastIdx
	s.segSize = info.Size()
	return nil
}

// scanSegment iterates one segment's verified records. On the final
// segment an invalid frame (short, oversized, CRC-mismatched or
// undecodable — a torn or corrupted tail) truncates the file at the
// failing record and ends the scan; on a sealed segment it is a hard
// error, because sealed segments were fsynced before the journal moved
// on and cannot legitimately hold torn writes.
func (s *Store) scanSegment(idx int, last bool, apply func(loc, record)) error {
	path := s.segPath(idx)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if len(data) < headerLen || string(data[:headerLen]) != segMagic {
		if last {
			s.truncatedTails++
			return os.Truncate(path, 0)
		}
		return fmt.Errorf("store: segment %s: bad magic header", path)
	}
	off := headerLen
	for off < len(data) {
		rec, n, err := decodeFrame(data[off:])
		if err != nil {
			if !last {
				return fmt.Errorf("store: segment %s: %v at offset %d (corruption in a sealed segment)", path, err, off)
			}
			s.truncatedTails++
			return os.Truncate(path, int64(off))
		}
		apply(loc{seg: idx, off: int64(off), n: int32(n)}, rec)
		off += n
	}
	return nil
}
