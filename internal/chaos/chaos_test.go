package chaos

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"artery/internal/stats"
	"artery/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
	if err := (Config{ResetRate: 1.5}).Validate(); err == nil {
		t.Error("rate > 1 accepted")
	}
	if err := (Config{ResetRate: -0.1}).Validate(); err == nil {
		t.Error("negative rate accepted")
	}
	if err := (Config{LatencyMin: time.Second, LatencyMax: time.Millisecond}).Validate(); err == nil {
		t.Error("inverted latency range accepted")
	}
	if err := (Config{TruncateMin: 100, TruncateMax: 10}).Validate(); err == nil {
		t.Error("inverted truncate range accepted")
	}
	for _, rate := range []float64{0, 0.1, 0.5, 1} {
		if err := Scaled(7, rate).Validate(); err != nil {
			t.Errorf("Scaled(7, %v) invalid: %v", rate, err)
		}
	}
}

// TestStreamsMatchSplitN pins the lazy stream derivation to the engine's
// SplitN contract: the i-th connection stream is exactly the i-th SplitN
// child of the same seed.
func TestStreamsMatchSplitN(t *testing.T) {
	const n, seed = 16, 99
	want := stats.NewRNG(seed).SplitN(n)
	str := newStreams(seed)
	// Interleaved access must not matter.
	for _, i := range []int{3, 0, 15, 7, 1, 2, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14} {
		if got, w := str.at(i).Uint64(), want[i].Uint64(); got != w {
			t.Fatalf("stream %d first draw = %d, SplitN child = %d", i, got, w)
		}
	}
	// Same object on re-access: the stream's state advances.
	s := newStreams(seed)
	a, b := s.at(2).Uint64(), s.at(2).Uint64()
	if a == b {
		t.Fatal("re-access must return the same advancing stream")
	}
}

// TestPlanDeterminism: same seed, same per-index plans; different seeds
// diverge; zero-rate channels draw nothing so enabling one channel never
// shifts another's schedule.
func TestPlanDeterminism(t *testing.T) {
	cfg := Scaled(42, 0.3).withDefaults()
	a, b := newStreams(cfg.Seed), newStreams(cfg.Seed)
	var faults int
	for i := 0; i < 200; i++ {
		pa, pb := planFor(cfg, a.at(i)), planFor(cfg, b.at(i))
		if pa != pb {
			t.Fatalf("plan %d diverged under one seed: %+v vs %+v", i, pa, pb)
		}
		if pa.destructive() {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("rate 0.3 over 200 connections injected nothing")
	}
	other := cfg
	other.Seed = 43
	c := newStreams(other.Seed)
	same := true
	for i := 0; i < 200; i++ {
		if planFor(other, c.at(i)) != planFor(cfg, newStreams(cfg.Seed).at(i)) {
			same = false
			break
		}
	}
	if same {
		t.Error("200 plans identical across different seeds")
	}

	// Enabling the latency channel must not shift the destructive gates:
	// gates draw from the same positions because latency draws its own.
	noLat := cfg
	noLat.LatencyRate = 0
	s1, s2 := newStreams(cfg.Seed), newStreams(cfg.Seed)
	for i := 0; i < 50; i++ {
		p1, p2 := planFor(cfg, s1.at(i)), planFor(noLat, s2.at(i))
		p1.delay = 0
		if p1 != p2 {
			t.Fatalf("plan %d destructive schedule shifted when latency was disabled: %+v vs %+v", i, p1, p2)
		}
	}
}

func TestCorruptMaskAlwaysDetectable(t *testing.T) {
	cfg := Config{Seed: 5, CorruptRate: 1}.withDefaults()
	str := newStreams(cfg.Seed)
	for i := 0; i < 100; i++ {
		p := planFor(cfg, str.at(i))
		if p.corruptAt < 0 {
			t.Fatalf("plan %d: corrupt rate 1 did not corrupt", i)
		}
		if p.corruptMask&0x80 == 0 {
			t.Fatalf("plan %d: mask %#x does not set the high bit", i, p.corruptMask)
		}
	}
}

// backendBody is the known payload the fault tests cut, flip and slow.
var backendBody = bytes.Repeat([]byte("0123456789abcdef"), 256) // 4 KiB

func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(backendBody)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestProxyMetrics checks the artery_chaos_* counters the proxy shares
// with every injection site.
func TestProxyMetrics(t *testing.T) {
	ts := newBackend(t)
	reg := trace.NewRegistry()
	p, err := NewProxy(Config{Seed: 3, ResetRate: 1, Registry: reg}, "127.0.0.1:0", ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	for i := 0; i < 3; i++ {
		if resp, err := hc.Get("http://" + p.Addr()); err == nil {
			resp.Body.Close()
			t.Fatal("reset get succeeded")
		}
	}
	if p.Faults() != 3 {
		t.Fatalf("Faults() = %d, want 3", p.Faults())
	}
	var prom strings.Builder
	reg.WriteProm(&prom)
	for _, want := range []string{"artery_chaos_connections_total 3", "artery_chaos_resets_total 3", "artery_chaos_faults_total 3"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, prom.String())
		}
	}
}

func TestProxyFaults(t *testing.T) {
	ts := newBackend(t)

	start := func(t *testing.T, cfg Config) (*Proxy, *http.Client) {
		t.Helper()
		p, err := NewProxy(cfg, "127.0.0.1:0", ts.URL)
		if err != nil {
			t.Fatalf("NewProxy: %v", err)
		}
		t.Cleanup(func() { p.Close() })
		// No keep-alive: each request is its own proxied connection, so
		// the per-connection schedule lines up with the request sequence.
		return p, &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	}

	t.Run("clean-passthrough", func(t *testing.T) {
		p, hc := start(t, Config{Seed: 1})
		resp, err := hc.Get("http://" + p.Addr())
		if err != nil {
			t.Fatalf("clean get via proxy: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if !bytes.Equal(b, backendBody) {
			t.Fatal("zero-rate proxy altered the body")
		}
		if p.Connections() != 1 {
			t.Fatalf("Connections() = %d, want 1", p.Connections())
		}
	})

	t.Run("storm", func(t *testing.T) {
		p, hc := start(t, Config{Seed: 1, Error5xxRate: 1})
		resp, err := hc.Get("http://" + p.Addr())
		if err != nil {
			t.Fatalf("storm get: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("storm status = %d, want 503", resp.StatusCode)
		}
	})

	t.Run("reset", func(t *testing.T) {
		p, hc := start(t, Config{Seed: 1, ResetRate: 1})
		if _, err := hc.Get("http://" + p.Addr()); err == nil {
			t.Fatal("reset get succeeded")
		}
		if p.Faults() != 1 {
			t.Fatalf("Faults() = %d, want 1", p.Faults())
		}
	})

	t.Run("truncate", func(t *testing.T) {
		p, hc := start(t, Config{Seed: 1, TruncateRate: 1, TruncateMin: 300, TruncateMax: 300})
		resp, err := hc.Get("http://" + p.Addr())
		if err != nil {
			// The cut may land inside the response headers.
			return
		}
		defer resp.Body.Close()
		if b, rerr := io.ReadAll(resp.Body); rerr == nil && len(b) == len(backendBody) {
			t.Fatal("truncating proxy delivered the full body")
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		// The proxy corrupts the raw upstream stream, headers included; pick
		// a seed whose planned offset deterministically lands in the body
		// (response headers here are well under 300 bytes).
		cfg := Config{CorruptRate: 1, CorruptSpan: 512}
		for seed := uint64(1); ; seed++ {
			cfg.Seed = seed
			at := planFor(cfg.withDefaults(), newStreams(seed).at(0)).corruptAt
			if at >= 300 {
				break
			}
			if seed > 1000 {
				t.Fatal("no seed places the corrupt offset in the body")
			}
		}
		p, hc := start(t, cfg)
		resp, err := hc.Get("http://" + p.Addr())
		if err != nil {
			t.Fatalf("corrupt get: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if bytes.Equal(b, backendBody) {
			t.Fatal("corrupting proxy delivered clean bytes")
		}
		if p.Faults() != 1 {
			t.Fatalf("Faults() = %d, want 1", p.Faults())
		}
		// Exactly one byte differs, by the planned mask.
		mask := planFor(cfg.withDefaults(), newStreams(cfg.Seed).at(0)).corruptMask
		diff := 0
		for i := range b {
			if i < len(backendBody) && b[i] != backendBody[i] {
				diff++
				if b[i]^backendBody[i] != mask {
					t.Fatalf("byte %d flipped by %#x, planned mask %#x", i, b[i]^backendBody[i], mask)
				}
			}
		}
		if diff != 1 {
			t.Fatalf("corruption flipped %d bytes, want exactly 1", diff)
		}
	})

	t.Run("truncate-bounded", func(t *testing.T) {
		// Read the raw stream: nothing past the planned cut may arrive,
		// and what does arrive is the head of the genuine response.
		p, _ := start(t, Config{Seed: 1, TruncateRate: 1, TruncateMin: 100, TruncateMax: 100})
		conn, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(conn) // the cut ends in a reset
		if len(got) > 100 {
			t.Fatalf("read %d bytes past the 100-byte cut", len(got))
		}
		if head := "HTTP/1.1 200 OK"; !strings.HasPrefix(head, string(got)) && !strings.HasPrefix(string(got), head) {
			t.Fatalf("truncated stream %q is not the head of the response", got)
		}
		if p.Faults() != 1 {
			t.Fatalf("Faults() = %d, want 1", p.Faults())
		}
	})

	t.Run("slowloris", func(t *testing.T) {
		p, hc := start(t, Config{Seed: 1, SlowLorisRate: 1, SlowChunk: 1024, SlowDelay: 5 * time.Millisecond})
		startT := time.Now()
		resp, err := hc.Get("http://" + p.Addr())
		if err != nil {
			t.Fatalf("slow get: %v", err)
		}
		defer resp.Body.Close()
		if b, rerr := io.ReadAll(resp.Body); rerr != nil || !bytes.Equal(b, backendBody) {
			t.Fatalf("slow proxy body wrong: err=%v len=%d", rerr, len(b))
		}
		if d := time.Since(startT); d < 15*time.Millisecond {
			t.Fatalf("slow proxy finished in %v", d)
		}
	})

	t.Run("latency", func(t *testing.T) {
		p, hc := start(t, Config{Seed: 1, LatencyRate: 1, LatencyMin: 30 * time.Millisecond, LatencyMax: 30 * time.Millisecond})
		startT := time.Now()
		resp, err := hc.Get("http://" + p.Addr())
		if err != nil {
			t.Fatalf("latency get: %v", err)
		}
		defer resp.Body.Close()
		if b, rerr := io.ReadAll(resp.Body); rerr != nil || !bytes.Equal(b, backendBody) {
			t.Fatalf("latency proxy body wrong: err=%v len=%d", rerr, len(b))
		}
		if d := time.Since(startT); d < 30*time.Millisecond {
			t.Fatalf("latency injection took only %v", d)
		}
		if p.Faults() != 0 {
			t.Fatalf("Faults() = %d for latency alone, want 0", p.Faults())
		}
	})

	t.Run("blackhole-honors-ctx", func(t *testing.T) {
		p, hc := start(t, Config{Seed: 1, BlackholeRate: 1, BlackholeHold: time.Minute})
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.Addr(), nil)
		startT := time.Now()
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			t.Fatal("blackholed get succeeded")
		}
		if d := time.Since(startT); d > 5*time.Second {
			t.Fatalf("a 50ms deadline waited %v on the blackhole", d)
		}
	})

	t.Run("blackhole-bounded", func(t *testing.T) {
		p, hc := start(t, Config{Seed: 1, BlackholeRate: 1, BlackholeHold: 30 * time.Millisecond})
		startT := time.Now()
		if _, err := hc.Get("http://" + p.Addr()); err == nil {
			t.Fatal("blackholed get succeeded")
		}
		if d := time.Since(startT); d < 30*time.Millisecond || d > 8*time.Second {
			t.Fatalf("blackhole hold was %v, want ~30ms", d)
		}
	})
}

// TestProxyDeterministicSchedule: two proxies with the same seed hand the
// same fault sequence to the same connection arrival order.
func TestProxyDeterministicSchedule(t *testing.T) {
	ts := newBackend(t)
	outcomes := func(seed uint64) []bool {
		p, err := NewProxy(Config{Seed: seed, ResetRate: 0.5}, "127.0.0.1:0", ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
		var out []bool
		for i := 0; i < 20; i++ {
			resp, err := hc.Get("http://" + p.Addr())
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			out = append(out, err == nil)
		}
		return out
	}
	a, b := outcomes(11), outcomes(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("connection %d outcome diverged under one seed: %v vs %v", i, a, b)
		}
	}
	okA := 0
	for _, ok := range a {
		if ok {
			okA++
		}
	}
	if okA == 0 || okA == len(a) {
		t.Fatalf("rate 0.5 produced a degenerate schedule (%d/%d ok)", okA, len(a))
	}
}

func TestProxyCloseIdempotentAndSevers(t *testing.T) {
	ts := newBackend(t)
	p, err := NewProxy(Config{Seed: 1, BlackholeRate: 1, BlackholeHold: time.Minute}, "127.0.0.1:0", ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		hc := &http.Client{Timeout: time.Minute}
		_, err := hc.Get("http://" + p.Addr())
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the blackhole take hold
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("blackholed request succeeded after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not sever the blackholed connection")
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestProxyRejectsBadTarget(t *testing.T) {
	if _, err := NewProxy(Config{Seed: 1}, "127.0.0.1:0", "not a target"); err == nil {
		t.Fatal("bad target accepted")
	}
	if _, err := NewProxy(Config{ResetRate: 2}, "127.0.0.1:0", "127.0.0.1:1"); err == nil {
		t.Fatal("invalid config accepted")
	}
}
