package main

import (
	"encoding/json"
	"sync"
	"time"

	"samplednn/internal/atomicfile"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Parent is the span that caused it (0 for
// a root); spans of one request, step tree or phase share Trace.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Trace   int64  `json:"trace"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how an untraced run pays nothing. The on
// switch lets a traced run leave alternate epochs or windows unrecorded:
// the two kinds of interval, interleaved in one process, are what the
// tracing overhead is measured from.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	on    bool
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), on: true} }

// handle names an open span; the zero handle is "not recorded". Span
// ids count from 1 in recording order.
type handle struct{ id, trace int64 }

func (r *recorder) setOn(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// begin opens a span under parent (the zero handle opens a new trace).
func (r *recorder) begin(name string, parent handle) handle {
	if r == nil {
		return handle{}
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return handle{}
	}
	id := int64(len(r.spans) + 1)
	tr := parent.trace
	if parent.id == 0 {
		tr = id
	}
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent.id, Trace: tr, StartNS: now})
	return handle{id: id, trace: tr}
}

// end closes the span.
func (r *recorder) end(h handle) {
	if r == nil || h.id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[h.id-1].EndNS = now
	r.mu.Unlock()
}

// len returns the number of spans recorded so far.
func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// durations returns, in nanoseconds, the durations of the spans called
// name among those recorded from index from on. Callers use it between
// stages, when nothing else is recording.
func (r *recorder) durations(name string, from int) []float64 {
	var out []float64
	for _, s := range r.spans[from:] {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS))
		}
	}
	return out
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string, env envelope) error {
	data, err := json.Marshal(struct {
		Env   envelope `json:"env"`
		Spans []span   `json:"spans"`
	}{env, r.spans})
	if err != nil {
		return err
	}
	return atomicfile.WriteFileBytes(path, append(data, '\n'))
}
