package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names a span. Roots are the two request spans; every other kind
// is a call into a layer through one of the three decorated interfaces.
type spanKind uint8

const (
	spServeRequest     spanKind = iota // root of a traced HTTP request (client-observed)
	spRubisInteraction                 // root of a traced direct interaction (no HTTP)
	spPinsGetPins
	spPinsRegister
	spPinsRelease
	spCacheLookup
	spCacheLookupBatch
	spCachePut
	spDBBegin
	spDBQuery
	spDBExec
	spDBCommit
	spDBAbort
	spDBPinLatest
	spDBUnpin
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"serve.request", "rubis.interaction",
	"pincushion.getpins", "pincushion.register", "pincushion.release",
	"cacheserver.lookup", "cacheserver.lookup_batch", "cacheserver.put",
	"dbnet.begin", "dbnet.query", "dbnet.exec", "dbnet.commit", "dbnet.abort",
	"dbnet.pin_latest", "dbnet.unpin",
}

// layerOf maps a child span to the layer whose time it is.
func layerOf(k spanKind) string {
	switch {
	case k >= spPinsGetPins && k <= spPinsRelease:
		return "pincushion"
	case k >= spCacheLookup && k <= spCachePut:
		return "cacheserver"
	case k >= spDBBegin && k <= spDBUnpin:
		return "dbnet"
	}
	return ""
}

// span is one recorded interval. Times are nanoseconds since the recorder's
// epoch. n1 and n2 carry the counts taken at the same boundary (keys, bytes,
// found, rows); their meaning per kind is in decorators.go.
type span struct {
	kind       spanKind
	parent     int32 // index of the enclosing root span, -1 when none was open
	req        uint32
	start, end int64
	n1, n2     int32
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory. The traced phases run one client, so at
// most one root is open at a time and every child span that starts while it
// is open belongs to it. While enabled is false the decorators forward
// straight to the wrapped layer: that is "tracing off".
type recorder struct {
	epoch   time.Time
	enabled atomic.Bool

	mu      sync.Mutex
	spans   []span
	curRoot int32
	curReq  uint32
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), curRoot: -1, spans: make([]span, 0, 1<<18)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// beginRoot opens a request span and returns its index.
func (r *recorder) beginRoot(kind spanKind) int32 {
	start := r.now()
	r.mu.Lock()
	r.curReq++
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{kind: kind, parent: -1, req: r.curReq, start: start})
	r.curRoot = idx
	r.mu.Unlock()
	return idx
}

// endRoot closes the request span opened by beginRoot.
func (r *recorder) endRoot(idx int32) {
	end := r.now()
	r.mu.Lock()
	r.spans[idx].end = end
	r.curRoot = -1
	r.mu.Unlock()
}

// leaf records a finished call into a layer under the open root, if any.
func (r *recorder) leaf(kind spanKind, start int64, n1, n2 int) {
	if !r.enabled.Load() {
		return // a transaction that outlived the traced phase
	}
	end := r.now()
	r.mu.Lock()
	s := span{kind: kind, parent: r.curRoot, start: start, end: end, n1: int32(n1), n2: int32(n2)}
	if r.curRoot >= 0 {
		s.req = r.curReq
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the parent, and children that overlap each other
// are counted once.
func selfTime(parent span, children []span) int64 {
	ivs := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	covered, edge := int64(0), parent.start
	for _, iv := range ivs {
		if iv[1] <= edge {
			continue
		}
		covered += iv[1] - max(iv[0], edge)
		edge = iv[1]
	}
	return parent.dur() - covered
}

// rootStats summarises the finished roots of one kind: how many there were,
// their mean duration, their mean self time, and per child kind the summed
// duration, the call count and every duration (for quantiles).
type rootStats struct {
	roots    int
	meanNS   float64
	selfNS   float64
	rootDurs []int64
	sumNS    [numSpanKinds]int64
	calls    [numSpanKinds]int64
	durs     [numSpanKinds][]int64
	n1, n2   [numSpanKinds]int64
	spans    int
}

func analyse(spans []span, root spanKind) rootStats {
	var st rootStats
	kids := map[int32][]span{}
	for _, s := range spans {
		if s.parent >= 0 && spans[s.parent].kind == root {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	var total, self int64
	for i, s := range spans {
		if s.kind != root || s.end == 0 {
			continue
		}
		st.roots++
		st.spans++
		total += s.dur()
		st.rootDurs = append(st.rootDurs, s.dur())
		ch := kids[int32(i)]
		self += selfTime(s, ch)
		for _, c := range ch {
			st.spans++
			st.sumNS[c.kind] += c.dur()
			st.calls[c.kind]++
			st.durs[c.kind] = append(st.durs[c.kind], c.dur())
			st.n1[c.kind] += int64(c.n1)
			st.n2[c.kind] += int64(c.n2)
		}
	}
	if st.roots > 0 {
		st.meanNS = float64(total) / float64(st.roots)
		st.selfNS = float64(self) / float64(st.roots)
	}
	return st
}

// layerNS returns the summed duration and call count of a layer's spans.
func (st *rootStats) layerNS(layer string) (ns, calls int64) {
	for k := spanKind(0); k < numSpanKinds; k++ {
		if layerOf(k) == layer {
			ns += st.sumNS[k]
			calls += st.calls[k]
		}
	}
	return ns, calls
}

// traceFileRequests caps how many requests of each traced phase are written
// to the trace file; the metrics use every span.
const traceFileRequests = 1000

// writeChromeTrace writes spans in Chrome trace-event format (load it in
// chrome://tracing or ui.perfetto.dev). HTTP requests are on thread 1 and
// direct interactions on thread 2; args carry the span id, its parent and
// the request id.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	var seen [numSpanKinds]int
	first := true
	for i, s := range spans {
		root := s
		if s.parent >= 0 {
			root = spans[s.parent]
		} else if s.kind > spRubisInteraction {
			continue // a call outside any request
		}
		if s.parent < 0 {
			seen[s.kind]++
		}
		if root.end == 0 || seen[root.kind] > traceFileRequests {
			continue
		}
		ev := event{
			Name: spanNames[s.kind], Cat: layerOf(s.kind), Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: 1 + int(root.kind),
			Args: map[string]any{"id": i, "parent": s.parent, "req": s.req, "n1": s.n1, "n2": s.n2},
		}
		if ev.Cat == "" {
			ev.Cat = "request"
		}
		blob, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return err
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteByte('\n')
		w.Write(blob)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
