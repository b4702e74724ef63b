package artery

import (
	"container/list"
	"sync"

	"artery/internal/readout"
	"artery/internal/stats"
)

// calibCacheBytes caps the bytes one CalibrationCache retains, as
// entryBytes counts them: 461 channels at the default k = 6, one at k = 14,
// and none at k ≥ 15, whose entry alone is over the cap.
const calibCacheBytes = 16 << 20

// calibKey is everything a calibration depends on: the seed of the
// calibration stream (the system RNG's first draw, which rng.Split would
// take), the window length and the history depth. The readout model is
// always readout.DefaultCalibration.
type calibKey struct {
	seed     uint64
	windowNs float64
	k        int
}

// calibrate runs the calibration key names, drawing exactly what
// NewChannel on rng.Split() of the system RNG draws.
func (key calibKey) calibrate() *readout.Channel {
	return readout.NewChannel(readout.DefaultCalibration(), key.windowNs, key.k, stats.NewRNG(key.seed))
}

// entryBytes is what a retained channel is charged: its state table's
// MaxTimeBuckets × (2^(k+1) − 2) Beta counters of two float64s each, the
// table's MaxTimeBuckets × (k+2) slice headers of 24 B, and 1 KiB for the
// channel, calibration, classifier, cache entry, list element and map
// slot around them. That is above the heap an entry was measured to hold
// at k = 1, 3, 6, 10 and 12 on amd64 with Go 1.24 (TestCalibrationCacheBounds
// rechecks k = 1 and 6), so the cap bounds real memory.
func entryBytes(k int) int64 {
	return readout.MaxTimeBuckets*((int64(1)<<(k+1)-2)*16+int64(k+2)*24) + 1<<10
}

// calibEntry is one key's channel: in flight until done is closed, then
// retained (elem != nil) or dropped from the map.
type calibEntry struct {
	key  calibKey
	ch   *readout.Channel
	done chan struct{}
	elem *list.Element
}

// CalibrationCache memoizes readout calibration across systems, the way
// the paper calibrates once at hardware initialization (§4, §6.1). Its
// New is the package New except that systems with equal seed, WindowNs
// and HistoryDepth share one read-only calibrated channel. A shared
// channel never changes an output byte: a built channel is never mutated,
// and a hit still takes the one draw from the system RNG that calibration
// takes, so every later draw is the same as on a fresh system.
//
// Concurrent callers of one key run one calibration; the others wait for
// it. Channels are retained up to a fixed 16 MiB, counting each one's
// state table and the structures around it, and evicted least recently
// used first, so keys that keep being resubmitted stay calibrated while
// one-off seeds stream past them. The zero value is ready to use, and a
// cache is safe for concurrent use. It must not be copied after first
// use.
type CalibrationCache struct {
	mu           sync.Mutex
	entries      map[calibKey]*calibEntry
	lru          list.List // retained entries, most recently used first
	bytes        int64
	hits, misses int64
}

// New builds a system exactly as the package New does, reusing the
// calibrated channel of an earlier system with the same seed, WindowNs and
// HistoryDepth when the cache still holds it.
func (c *CalibrationCache) New(opts ...Option) (*System, error) {
	return newSystem(opts, c)
}

// Stats reports how many lookups found a channel (hits, including callers
// that waited for an in-flight calibration), how many ran a calibration
// (misses), and the bytes retained now, as the cap counts them.
func (c *CalibrationCache) Stats() (hits, misses, retainedBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.bytes
}

// channel returns key's calibrated channel, calibrating it on a miss. A
// nil cache calibrates every time.
func (c *CalibrationCache) channel(key calibKey) *readout.Channel {
	if c == nil {
		return key.calibrate()
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.done
		if e.ch == nil { // the calibrating caller panicked
			return key.calibrate()
		}
		return e.ch
	}
	if c.entries == nil {
		c.entries = map[calibKey]*calibEntry{}
	}
	e := &calibEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		c.retain(e)
		c.mu.Unlock()
		close(e.done)
	}()
	e.ch = key.calibrate()
	return e.ch
}

// retain keeps a finished entry, evicting the least recently used ones to
// stay under the cap, or drops it if it failed or alone exceeds the cap.
// Callers hold c.mu.
func (c *CalibrationCache) retain(e *calibEntry) {
	size := entryBytes(e.key.k)
	if e.ch == nil || size > calibCacheBytes {
		delete(c.entries, e.key)
		return
	}
	for c.bytes+size > calibCacheBytes {
		old := c.lru.Remove(c.lru.Back()).(*calibEntry)
		delete(c.entries, old.key)
		c.bytes -= entryBytes(old.key.k)
	}
	e.elem = c.lru.PushFront(e)
	c.bytes += size
}
