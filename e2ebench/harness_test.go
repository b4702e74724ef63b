package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"artery/api"
	"artery/internal/trace"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort a copy
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{100, 0.9, 90, true},
		{99, 0.9, 0, false},
		{21, 0.5, 11, true},
	} {
		xs := seq(c.n)
		got, err := percentile(xs, c.p)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, ok=%v", c.n, c.p, got, err, c.want, c.ok)
		}
		if xs[0] != float64(c.n) {
			t.Errorf("percentile reordered its input")
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestPromRoundTrip parses the exposition the program's own registry
// writes, so the scraper follows the format arteryd actually serves.
func TestPromRoundTrip(t *testing.T) {
	reg := trace.NewRegistry()
	reg.Counter("artery_test_jobs_total", "jobs").Add(41)
	reg.Gauge("artery_test_depth", "depth").Set(0.5)
	h := reg.Histogram("artery_test_seconds", "latency", []float64{1e-6, 1e-5, 1e-4})
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	before, err := parseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// 100 observations between two scrapes: 30 in (0, 1µs], 60 in
	// (1µs, 10µs], 10 above 100µs.
	for i := 0; i < 30; i++ {
		h.Observe(5e-7)
	}
	for i := 0; i < 60; i++ {
		h.Observe(5e-6)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1)
	}
	reg.Counter("artery_test_jobs_total", "jobs").Add(9)
	buf.Reset()
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(before, after, "artery_test_jobs_total"); d != 9 {
		t.Errorf("counter delta = %v, want 9", d)
	}
	if after["artery_test_depth"] != 0.5 {
		t.Errorf("gauge = %v, want 0.5", after["artery_test_depth"])
	}
	// Rank 50 lies 20 observations into the 60 of (1µs, 10µs].
	q, n, err := histQuantile(before, after, "artery_test_seconds", 0.5)
	if err != nil || n != 100 {
		t.Fatalf("histQuantile: %v, n=%d", err, n)
	}
	if want := 1e-6 + (1e-5-1e-6)*20.0/60.0; abs(q-want) > 1e-18 {
		t.Errorf("median = %v, want %v", q, want)
	}
	if _, _, err := histQuantile(before, after, "artery_test_seconds", 0.95); err == nil {
		t.Error("q0.95 of 100 observations leaves 5 beyond it and must be refused")
	}
	if q, n, err := histQuantile(after, after, "artery_test_seconds", 0.5); q != 0 || n != 0 || err != nil {
		t.Errorf("empty delta = %v, %d, %v; want 0, 0, nil", q, n, err)
	}
	if _, err := parseProm(strings.NewReader("artery_x notanumber\n")); err == nil {
		t.Error("malformed value accepted")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

//go:noinline
func burnCPU(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	return x
}

// TestDecodeRealProfile decodes a profile runtime/pprof wrote in this
// process and finds the function that burned the CPU.
func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burnCPU(400 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, burn int64
	for _, s := range samples {
		total += s.cpuNs
		for _, fn := range s.stack {
			// A test binary names package main by its import path.
			if strings.HasSuffix(fn, ".burnCPU") {
				burn += s.cpuNs
				break
			}
		}
	}
	if burn == 0 || burn*2 < total {
		t.Errorf("burnCPU holds %d of %d profiled ns, want most", burn, total)
	}
}

// protoEnc hand-encodes the profile.proto subset the decoder reads.
type protoEnc struct{ bytes.Buffer }

func (b *protoEnc) varint(num int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *protoEnc) bytesField(num int, p []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(p))))
	b.Write(p)
}

func msg(build func(*protoEnc)) []byte {
	var b protoEnc
	build(&b)
	return b.Bytes()
}

// TestDecodeHandBuiltProfile covers both encodings of repeated integers
// (runtime/pprof packs only runs longer than two) and inlined frames.
func TestDecodeHandBuiltProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "leaf", "inlined", "caller"}
	raw := msg(func(p *protoEnc) {
		p.bytesField(1, msg(func(v *protoEnc) { v.varint(1, 1); v.varint(2, 2) }))
		p.bytesField(1, msg(func(v *protoEnc) { v.varint(1, 3); v.varint(2, 4) }))
		// Sample 1: unpacked location ids and values.
		p.bytesField(2, msg(func(s *protoEnc) {
			s.varint(1, 1)
			s.varint(1, 2)
			s.varint(2, 1)
			s.varint(2, 10_000_000)
		}))
		// Sample 2: packed location ids and values.
		p.bytesField(2, msg(func(s *protoEnc) {
			s.bytesField(1, binary.AppendUvarint(nil, 2))
			s.bytesField(2, binary.AppendUvarint(binary.AppendUvarint(nil, 2), 20_000_000))
		}))
		// Location 1 holds an inlined frame: "inlined" was inlined into "leaf".
		p.bytesField(4, msg(func(l *protoEnc) {
			l.varint(1, 1)
			l.bytesField(4, msg(func(ln *protoEnc) { ln.varint(1, 2) }))
			l.bytesField(4, msg(func(ln *protoEnc) { ln.varint(1, 1) }))
		}))
		p.bytesField(4, msg(func(l *protoEnc) {
			l.varint(1, 2)
			l.bytesField(4, msg(func(ln *protoEnc) { ln.varint(1, 3) }))
		}))
		p.bytesField(5, msg(func(f *protoEnc) { f.varint(1, 1); f.varint(2, 5) }))
		p.bytesField(5, msg(func(f *protoEnc) { f.varint(1, 2); f.varint(2, 6) }))
		p.bytesField(5, msg(func(f *protoEnc) { f.varint(1, 3); f.varint(2, 7) }))
		for _, s := range strs {
			p.bytesField(6, []byte(s))
		}
	})
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()
	got, err := decodeCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []cpuSample{
		{stack: []string{"inlined", "leaf", "caller"}, cpuNs: 10_000_000},
		{stack: []string{"caller"}, cpuNs: 20_000_000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
	if _, err := decodeCPUProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile accepted")
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "artery/internal/readout.GenerateDataset", "artery/internal/readout.NewChannelWithTable",
			"artery.newSystem", "artery.New", "artery/internal/server.(*Server).execute"}, "artery.calibrate"},
		{[]string{"artery/internal/stats.(*RNG).AddComplexNorm", "artery/internal/readout.(*Calibration).SynthesizeInto",
			"artery/internal/core.(*Engine).runShotCompiled"}, "readout.synth"},
		{[]string{"artery/internal/readout.Demodulate", "artery/internal/readout.(*Classifier).ClassifyFullAndBits",
			"artery/internal/core.(*Engine).runShotCompiled"}, "readout.classify"},
		{[]string{"artery/internal/readout.carrierTemplate", "artery/internal/readout.(*Calibration).SynthesizeInto"}, "readout.synth"},
		{[]string{"artery/internal/controller.(*Artery).Feedback", "artery/internal/core.(*Engine).run"}, "predict"},
		{[]string{"artery/internal/stabilizer.(*Tableau).Measure", "artery/internal/core.(*Engine).run"}, "stabilizer"},
		{[]string{"encoding/json.(*encodeState).marshal", "artery/internal/server.(*Server).handleStream", "net/http.(*conn).serve"}, "server"},
		{[]string{"artery/internal/circuit.Compile", "artery.(*System).runStream", "artery/internal/server.(*Server).execute"}, "server"},
		{[]string{"syscall.Syscall", "artery/internal/store.(*Store).sync", "artery/internal/store.(*Store).loop"}, "store"},
		{[]string{"artery/api.ValidateEvent", "artery/internal/cluster.(*Coordinator).tryShard"}, "api"},
		{[]string{"bufio.(*Reader).Read", "artery/client.(*Stream).next", "main.follow"}, "client"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, "other"},
		{[]string{"net/http.(*persistConn).readLoop"}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	for _, l := range layerOrder {
		if strings.Contains(cpuMetricName(l), "..") {
			t.Errorf("bad metric name %q", cpuMetricName(l))
		}
	}
}

func TestRouteOf(t *testing.T) {
	for path, want := range map[string][2]string{
		"/v1/jobs":              {"submit", ""},
		"/v1/jobs/job-7":        {"status", "job-7"},
		"/v1/jobs/job-7/stream": {"stream", "job-7"},
		"/metrics":              {"metrics", ""},
	} {
		if r, j := routeOf(path); r != want[0] || j != want[1] {
			t.Errorf("routeOf(%q) = %q, %q; want %q, %q", path, r, j, want[0], want[1])
		}
	}
}

func TestExecutedShots(t *testing.T) {
	req := func(ctrl string, seed uint64, off, shots int) api.Request {
		return api.Request{Workload: "qrw", Param: 5, Controller: ctrl, Seed: seed, ShotOffset: off, Shots: shots}
	}
	single := &fleet{front: &node{name: "arteryd"}}
	single.exec = []*node{single.front}
	// A repeated request on a single node is a second user job.
	subs := []submission{{node: "arteryd", req: req("QubiC", 1, 0, 64)}, {node: "arteryd", req: req("QubiC", 1, 0, 64)},
		{node: "arteryd", req: req("ARTERY", 1, 0, 64)}}
	if got := executedShots(subs, single); got != 192 {
		t.Errorf("single node: %d shots, want 192", got)
	}
	b0, b1 := &node{name: "backend0"}, &node{name: "backend1"}
	sharded := &fleet{front: &node{name: "coordinator"}, exec: []*node{b0, b1}}
	subs = []submission{
		{node: "coordinator", req: req("ARTERY", 9, 0, 1024)},
		{node: "backend0", req: req("ARTERY", 9, 0, 512)},
		{node: "backend1", req: req("ARTERY", 9, 512, 512)},
		{node: "backend0", req: req("ARTERY", 9, 512, 512)}, // hedge of the second shard
	}
	if got := executedShots(subs, sharded); got != 1536 {
		t.Errorf("sharded: %d shots, want 1536 (512 + 512 replayed + 512)", got)
	}
}

func TestPlanIsFixedBySeed(t *testing.T) {
	for name, w := range workloads {
		a, err := w.plan(7, 20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := w.plan(7, 20)
		c, _ := w.plan(8, 20)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two job lists", name)
		}
		if reflect.DeepEqual(a.jobs, c.jobs) {
			t.Errorf("%s: seeds 7 and 8 gave the same job list", name)
		}
		if len(a.jobs) < minJobs || len(a.warm) != defMaxJobs || len(a.sample) != w.sample {
			t.Errorf("%s: %d jobs, %d warm-up, %d sampled", name, len(a.jobs), len(a.warm), len(a.sample))
		}
	}
	sweep, _ := workloads["sweep-small"].plan(3, 20)
	seeds := map[uint64]bool{}
	for _, r := range sweep.jobs {
		seeds[r.Seed] = true
	}
	if len(seeds) != 1 {
		t.Errorf("sweep-small uses %d request seeds, want one", len(seeds))
	}
	surface, _ := workloads["surface-d15"].plan(3, 20)
	seeds = map[uint64]bool{}
	for _, r := range surface.jobs {
		seeds[r.Seed] = true
	}
	if len(seeds) != len(surface.jobs) {
		t.Errorf("surface-d15 reuses request seeds")
	}
}
