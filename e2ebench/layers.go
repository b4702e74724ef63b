package main

import "strings"

// The layers a CPU-profile sample can be charged to, in report order.
// Each becomes a busy-time metric (see cpuMetricName); together they
// partition the traced run's CPU.
var layerOrder = []string{
	"artery.calibrate",
	"readout.synth",
	"readout.classify",
	"predict",
	"stabilizer",
	"core",
	"quantum",
	"api",
	"client",
	"server",
	"cluster",
	"store",
	"runtime.gc",
	"other",
}

// layerOfPackage maps a Go package path to its layer. Packages absent
// here (circuit, stats, interconnect, trace, workload, the artery facade
// apart from calibration, the standard library) are not layers: their
// frames are charged to the nearest layer that called them.
var layerOfPackage = map[string]string{
	"artery/internal/predict":    "predict",
	"artery/internal/controller": "predict",
	"artery/internal/stabilizer": "stabilizer",
	"artery/internal/core":       "core",
	"artery/internal/quantum":    "quantum",
	"artery/api":                 "api",
	"artery/client":              "client",
	"artery/internal/server":     "server",
	"artery/internal/cluster":    "cluster",
	"artery/internal/store":      "store",
}

// calibrationFuncs are the public calibration entry points: any sample
// with one of them on its stack is calibration, whatever runs below.
var calibrationFuncs = map[string]bool{
	"artery.New":                                  true,
	"artery.newSystem":                            true,
	"artery/internal/readout.NewChannel":          true,
	"artery/internal/readout.NewChannelWithTable": true,
}

// gcRoots are the runtime's background collector goroutines.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// layerOf charges one sample (stack leaf first) to a layer: calibration
// if artery.New is anywhere on the stack, else the innermost frame that
// belongs to a layer, else the garbage collector's workers, else other.
// Allocation and GC assists inside a layer's code stay with that layer.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if calibrationFuncs[fn] {
			return "artery.calibrate"
		}
	}
	for _, fn := range stack {
		pkg := packageOf(fn)
		if pkg == "artery/internal/readout" {
			if isSynthesis(fn) {
				return "readout.synth"
			}
			return "readout.classify"
		}
		if l, ok := layerOfPackage[pkg]; ok {
			return l
		}
	}
	for _, fn := range stack {
		if gcRoots[fn] {
			return "runtime.gc"
		}
	}
	return "other"
}

// isSynthesis separates readout pulse synthesis (pulse generation, its
// carrier templates and pulse pooling) from everything else readout does
// per shot, which is classification: demodulation, window bits and the
// trajectory-table lookups.
func isSynthesis(fn string) bool {
	return strings.Contains(fn, "Synthesize") || strings.Contains(fn, "arrier") || strings.Contains(fn, "PulsePool")
}

// packageOf extracts the package path from a symbol such as
// "artery/internal/readout.(*Calibration).SynthesizeInto".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerCPU sums CPU nanoseconds per layer.
func layerCPU(samples []cpuSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		out[layerOf(s.stack)] += s.cpuNs
	}
	return out
}
