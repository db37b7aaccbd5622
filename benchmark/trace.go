package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"galsim/internal/isa"
	"galsim/internal/workload"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. Spans of one operation share Op; Parent is the
// ID of the enclosing span (0 for the operation's root).
type span struct {
	Op     uint64 `json:"op"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Calls counts the calls an aggregated span stands for (InstrSource
	// Next calls are summed into one span per run, not spanned singly).
	Calls uint64 `json:"calls,omitempty"`
}

// tracer keeps spans in memory until the report is written. A nil tracer
// records nothing, which is how the untraced run calls the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	next  uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span.
type active struct {
	t      *tracer
	op     uint64
	id     uint64
	parent uint64
	name   string
	start  time.Time
}

// root opens the first span of a new operation.
func (t *tracer) root(name string) *active {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &active{t: t, op: id, id: id, name: name, start: time.Now()}
}

// child opens a span inside a.
func (a *active) child(name string) *active {
	if a == nil {
		return nil
	}
	a.t.mu.Lock()
	a.t.next++
	id := a.t.next
	a.t.mu.Unlock()
	return &active{t: a.t, op: a.op, id: id, parent: a.id, name: name, start: time.Now()}
}

// end closes the span and records it.
func (a *active) end() {
	if a == nil {
		return
	}
	a.t.add(span{Op: a.op, ID: a.id, Parent: a.parent, Name: a.name}, a.start, time.Now())
}

// aggregate records calls summed to total as one child span of a, placed at
// the start of a.
func (a *active) aggregate(name string, total time.Duration, calls uint64) {
	if a == nil {
		return
	}
	a.t.mu.Lock()
	a.t.next++
	id := a.t.next
	a.t.mu.Unlock()
	a.t.add(span{Op: a.op, ID: id, Parent: a.id, Name: name, Calls: calls}, a.start, a.start.Add(total))
}

func (t *tracer) add(s span, start, end time.Time) {
	s.Start, s.End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// layerTime is the total and self time of all spans of one name.
type layerTime struct {
	Spans   int    `json:"spans"`
	Calls   uint64 `json:"calls"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// selfTimes sums, per span name, the spans' durations and their self time:
// the duration minus the part of it that child spans cover.
func selfTimes(spans []span) map[string]layerTime {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		lt.Spans++
		lt.Calls += s.Calls
		lt.TotalNs += s.End - s.Start
		lt.SelfNs += s.End - s.Start - covered(s, kids[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// timedSource forwards an InstrSource and sums the time spent in its
// instruction-supplying calls. It forwards workload.PoolUser, so the core
// keeps its instruction arena and the simulation is unchanged.
type timedSource struct {
	src   workload.InstrSource
	calls uint64
	spent time.Duration
}

func (s *timedSource) Next() *isa.Instr {
	t := time.Now()
	in := s.src.Next()
	s.spent += time.Since(t)
	s.calls++
	return in
}

func (s *timedSource) NextWrongPath() *isa.Instr {
	t := time.Now()
	in := s.src.NextWrongPath()
	s.spent += time.Since(t)
	s.calls++
	return in
}

func (s *timedSource) StartWrongPath(target uint64) { s.src.StartWrongPath(target) }
func (s *timedSource) EndWrongPath()                { s.src.EndWrongPath() }
func (s *timedSource) InWrongPath() bool            { return s.src.InWrongPath() }
func (s *timedSource) CurrentPC() uint64            { return s.src.CurrentPC() }

func (s *timedSource) UsePool(p *isa.Pool) bool {
	if pu, ok := s.src.(workload.PoolUser); ok {
		return pu.UsePool(p)
	}
	return false
}

// cpuProfile is a CPU profile reduced to sampled CPU time per package of
// the innermost frame, plus the time with a garbage-collector frame on the
// stack.
type cpuProfile struct {
	Total int64            `json:"total_ns"`
	GC    int64            `json:"gc_ns"`
	ByPkg map[string]int64 `json:"by_package_ns"`
}

func (p *cpuProfile) merge(q *cpuProfile) {
	if p.ByPkg == nil {
		p.ByPkg = map[string]int64{}
	}
	p.Total += q.Total
	p.GC += q.GC
	for k, v := range q.ByPkg {
		p.ByPkg[k] += v
	}
}

func (p *cpuProfile) share(pkg string) float64 { return ratio(float64(p.ByPkg[pkg]), float64(p.Total)) }

// packageOf maps a profile function name to its package's last path
// element: "galsim/internal/pipeline.(*Core).Run" → "pipeline",
// "runtime.mallocgc" → "runtime".
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	fn = fn[strings.LastIndex(fn, "/")+1:]
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return fn
}

// gcFrame reports whether a frame belongs to the garbage collector.
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// parseCPUProfile decodes the gzipped protocol-buffer profile that
// runtime/pprof writes, keeping only what cpuProfile needs.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		locFunc = map[uint64]uint64{} // location → innermost function
		locAll  = map[uint64][]uint64{}
		funcStr = map[uint64]uint64{} // function → name string index
		strs    []string
	)
	err = walkProto(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			var vals []int64
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					if b != nil {
						return unpack(b, func(x uint64) { s.locs = append(s.locs, x) })
					}
					s.locs = append(s.locs, v)
				case 2:
					if b != nil {
						return unpack(b, func(x uint64) { vals = append(vals, int64(x)) })
					}
					vals = append(vals, int64(v))
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = vals[len(vals)-1] // CPU profiles: [samples, nanoseconds]
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkProto(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if len(fns) > 0 {
				locFunc[id] = fns[0]
			}
			locAll[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walkProto(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		if i := funcStr[fn]; int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	p := &cpuProfile{ByPkg: map[string]int64{}}
	for _, s := range samples {
		if len(s.locs) == 0 {
			continue
		}
		p.Total += s.value
		p.ByPkg[packageOf(name(locFunc[s.locs[0]]))] += s.value
	stack:
		for _, l := range s.locs {
			for _, fn := range locAll[l] {
				if gcFrame(name(fn)) {
					p.GC += s.value
					break stack
				}
			}
		}
	}
	return p, nil
}

var errProto = errors.New("profile: malformed protocol buffer")

// walkProto calls fn for every field of one protocol-buffer message: v for
// varints, b for length-delimited fields.
func walkProto(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, body); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

func unpack(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
