package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuSample is one decoded CPU-profile sample: its stack as function
// names, leaf first (inlined frames expanded innermost first), and the
// CPU nanoseconds it stands for.
type cpuSample struct {
	stack []string
	cpuNs int64
}

// decodeCPUProfile reads a gzipped profile.proto as runtime/pprof writes
// it. Only the fields the layer attribution needs are kept: samples,
// locations with their inline lines, functions and the string table.
func decodeCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples    []rawSample
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName   = map[uint64]int64{}    // function id -> string index
		strs       []string
		sampleType []int64 // string index of each value's type
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					sampleType = append(sampleType, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(n, w int, v uint64, p []byte) error {
				switch n {
				case 1:
					return repeatedVarint(w, v, p, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeatedVarint(w, v, p, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n, _ int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(p, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpuIdx := -1
	for i, t := range sampleType {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("pprof: profile has no cpu sample type")
	}
	name := func(fn uint64) string {
		i, ok := funcName[fn]
		if !ok || i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, errors.New("pprof: sample without a cpu value")
		}
		cs := cpuSample{cpuNs: s.values[cpuIdx]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				cs.stack = append(cs.stack, name(fn))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type, varint value (wire types 0, 1 and 5) or payload (wire type 2).
func fields(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("pprof: short fixed64")
			}
			v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("pprof: bad length-delimited field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("pprof: short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarint accepts a repeated integer field in either encoding:
// one varint per field (wire type 0) or a packed run (wire type 2).
// runtime/pprof packs runs longer than two and writes shorter ones
// unpacked.
func repeatedVarint(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
