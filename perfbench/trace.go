package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Tracing. The benchmark records its own spans around every public call
// it makes; traced rounds also turn on the program's obs tracer, whose
// spans are assigned to the benchmark's window spans by time containment.
// Every span is kept in memory and written out when the run ends.

// span is one recorded interval, in nanoseconds since the run started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Round   int    `json:"round"`
	Name    string `json:"name"`
	Tag     string `json:"tag,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Program bool   `json:"program,omitempty"` // from the program's obs tracer
}

// traceCapacity bounds the program's ring of spans per traced round;
// overwritten spans are counted in trace.dropped.
const traceCapacity = 1 << 19

type recorder struct {
	epoch   time.Time
	spans   []span
	dropped int64 // program spans overwritten in the tracer's ring
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// forRound returns the span sink of one round; untraced rounds get an
// inert one.
func (r *recorder) forRound(i int, traced bool) *roundRec {
	if !traced {
		return &roundRec{}
	}
	return &roundRec{r: r, round: i}
}

// roundRec records one round's spans. The zero value records nothing.
type roundRec struct {
	r       *recorder
	round   int
	stack   []int // open benchmark spans, innermost last
	windows []int // indexes of window spans in r.spans
	first   int   // index of this round's first span
	tracer  *obs.Tracer
}

func (rr *roundRec) on() bool { return rr.r != nil }

// start opens the round span and turns on the program's tracer.
func (rr *roundRec) start(name string) {
	if !rr.on() {
		return
	}
	rr.first = len(rr.r.spans)
	rr.tracer = obs.Default().EnableTracing(traceCapacity, rr.r.now)
	rr.begin(name, "")
}

// begin opens a benchmark span; end closes the innermost one.
func (rr *roundRec) begin(name, tag string) {
	if !rr.on() {
		return
	}
	parent := 0
	if n := len(rr.stack); n > 0 {
		parent = rr.r.spans[rr.stack[n-1]].ID
	}
	rr.r.spans = append(rr.r.spans, span{
		ID: len(rr.r.spans) + 1, Parent: parent, Round: rr.round,
		Name: name, Tag: tag, Start: rr.r.now(),
	})
	rr.stack = append(rr.stack, len(rr.r.spans)-1)
}

func (rr *roundRec) end() {
	if !rr.on() {
		return
	}
	i := rr.stack[len(rr.stack)-1]
	rr.stack = rr.stack[:len(rr.stack)-1]
	rr.r.spans[i].End = rr.r.now()
}

// window is begin for a span the trace metrics treat as one timed window.
func (rr *roundRec) window(name, tag string) {
	rr.begin(name, tag)
	if rr.on() {
		rr.windows = append(rr.windows, len(rr.r.spans)-1)
	}
}

// finish closes the round span, collects the program's spans and adds the
// trace metrics to the round's per-layer map.
func (rr *roundRec) finish(r *round) {
	if !rr.on() {
		return
	}
	rr.end()
	obs.Default().DisableTracing()
	events := rr.tracer.Events()
	r.layer["trace.dropped"] = float64(rr.tracer.Dropped())
	rr.r.dropped += rr.tracer.Dropped()

	own := rr.r.spans[rr.first:]
	var turboca, backend, winTotal float64
	var self []float64
	for _, wi := range rr.windows {
		w := rr.r.spans[wi]
		var all, tc, be []interval
		for _, e := range events {
			if e.Start < w.Start || e.End > w.End {
				continue
			}
			iv := interval{e.Start, e.End}
			all = append(all, iv)
			switch {
			case strings.HasPrefix(e.Name, "turboca."):
				tc = append(tc, iv)
			case strings.HasPrefix(e.Name, "backend."):
				be = append(be, iv)
			}
		}
		dur := float64(w.End - w.Start)
		winTotal += dur
		self = append(self, (dur-unionLen(all))/1e6)
		turboca += unionLen(tc)
		backend += unionLen(be)
	}
	r.layer["trace.window_self_ms_p50"] = quantile(self, 0.5)
	if winTotal > 0 {
		r.layer["trace.turboca_share"] = turboca / winTotal
		r.layer["trace.backend_share"] = backend / winTotal
	}

	// Assign each program span to the innermost benchmark span containing it.
	for _, e := range events {
		parent := 0
		for _, d := range own {
			if d.Start <= e.Start && e.End <= d.End {
				parent = d.ID // later spans nest inside earlier ones
			}
		}
		rr.r.spans = append(rr.r.spans, span{
			ID: len(rr.r.spans) + 1, Parent: parent, Round: rr.round,
			Name: e.Name, Start: e.Start, End: e.End, Program: true,
		})
	}
	r.layer["trace.spans"] = float64(len(rr.r.spans) - rr.first)
}

type interval struct{ start, end int64 }

// unionLen is the total length covered by ivs.
func unionLen(ivs []interval) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start > curE:
			total += curE - curS
			curS, curE = iv.start, iv.end
		case iv.end > curE:
			curE = iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return float64(total)
}

// writeTrace writes every span of a traced run, with the run's provenance
// and the count of dropped program spans, to one JSON file under
// o.traceDir and returns its path.
func writeTrace(o options, prov map[string]any, rec *recorder) (string, error) {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	data, err := json.Marshal(map[string]any{"provenance": prov, "dropped": rec.dropped, "spans": rec.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
