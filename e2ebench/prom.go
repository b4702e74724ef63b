package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// scrape is one /metrics exposition: every series (metric name plus its
// label block, exactly as exposed) mapped to its value.
type scrape map[string]float64

// parseProm reads the Prometheus text exposition that arteryd's /metrics
// serves. Comment lines are skipped; every other line is "series value".
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta is a counter's growth between two scrapes of the same node.
func delta(before, after scrape, series string) float64 {
	return after[series] - before[series]
}

// histQuantile estimates the q-quantile of the observations a histogram
// gained between two scrapes, interpolating linearly inside the bucket
// that holds the rank (as Prometheus' histogram_quantile does). It also
// returns the observation count, and refuses a count too small to leave
// minBeyond observations above the rank. An empty histogram yields 0.
func histQuantile(before, after scrape, name string, q float64) (float64, int, error) {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for series := range after {
		raw, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		raw = strings.TrimSuffix(raw, `"}`)
		le := math.Inf(1)
		if raw != "+Inf" {
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("metrics: %s: bad bucket bound %q", name, raw)
			}
			le = v
		}
		bs = append(bs, bucket{le, delta(before, after, series)})
	}
	if len(bs) == 0 {
		return 0, 0, fmt.Errorf("metrics: no histogram %s", name)
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].cum
	if total == 0 {
		return 0, 0, nil
	}
	rank := q * total
	if total-math.Ceil(rank) < minBeyond {
		return 0, int(total), fmt.Errorf("metrics: %s: q%g of %d observations leaves fewer than %d beyond it", name, q, int(total), minBeyond)
	}
	lower, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lower, int(total), nil
			}
			return lower + (b.le-lower)*(rank-prev)/(b.cum-prev), int(total), nil
		}
		lower, prev = b.le, b.cum
	}
	return lower, int(total), nil
}
