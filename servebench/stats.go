package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"subwarpsim/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// wholeUSQuantile is the q-quantile of durations the server truncated
// to whole microseconds: a sample k stands for [k, k+1), so the
// quantile is interpolated within its microsecond (the grouped-data
// estimate) instead of snapping to an integer.
func wholeUSQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	target := q * float64(len(s))
	below := sort.SearchFloat64s(s, s[min(int(target), len(s)-1)])
	k := s[below]
	at := sort.SearchFloat64s(s, k+1) - below
	return k + (target-float64(below))/float64(at)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a closed span of wall time.
type interval struct{ start, end time.Time }

// covered returns how much of [outer.start, outer.end] the union of
// ivs covers.
func covered(outer interval, ivs []interval) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		if iv.start.Before(outer.start) {
			iv.start = outer.start
		}
		if iv.end.After(outer.end) {
			iv.end = outer.end
		}
		if iv.end.After(iv.start) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeSample holds the Go runtime counters the per-layer runtime
// metrics difference across a window.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// promValue reads one unlabeled series from a registry's Prometheus
// exposition (0 when absent).
func promValue(reg *obs.Registry, name string) float64 {
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

// vcsRevision is the commit the binary was built from, when the build
// embedded one (it does not in an exported source tree).
func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceHash fingerprints the Go sources and module files under root,
// so a result names the code it measured even without a commit.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
