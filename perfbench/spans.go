package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, its
// start and end in ns since the log's origin, the span that caused it
// (0 for a root) and the id shared by every span of one round.
type span struct {
	ID, Parent, Round uint64
	Name              string
	Start, End        int64
}

// spanLog keeps the traced run's spans in memory until exit. Each
// goroutine that records gets its own buffer, so recording takes no
// lock; the buffers are preallocated so recording does not allocate.
type spanLog struct {
	origin  time.Time
	bufs    []*spanBuf
	dropped int64
}

// spanBuf is one goroutine's span buffer. A nil *spanBuf records
// nothing, which is how untraced sections run the same code.
type spanBuf struct {
	log   *spanLog
	lane  uint64
	next  uint64
	spans []span
}

// maxSpansPerBuf bounds each buffer: past it spans are counted as
// dropped instead of growing memory without limit (the per-layer
// accumulators never drop).
const maxSpansPerBuf = 1 << 17

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// buf returns a fresh buffer for one recording goroutine. Call it before
// that goroutine starts.
func (l *spanLog) buf() *spanBuf {
	b := &spanBuf{log: l, lane: uint64(len(l.bufs)), spans: make([]span, 0, maxSpansPerBuf)}
	l.bufs = append(l.bufs, b)
	return b
}

// now is the span clock: ns since the log's origin (0 on a nil buffer).
func (b *spanBuf) now() int64 {
	if b == nil {
		return 0
	}
	return int64(time.Since(b.log.origin))
}

// at converts a wall-clock reading to the span clock.
func (b *spanBuf) at(t time.Time) int64 {
	if b == nil {
		return 0
	}
	return int64(t.Sub(b.log.origin))
}

// id reserves a span id, so children can name a parent that has not
// finished yet (0 on a nil buffer).
func (b *spanBuf) id() uint64 {
	if b == nil {
		return 0
	}
	b.next++
	return b.lane<<48 | b.next
}

// put records a finished span under a reserved id.
func (b *spanBuf) put(id, parent, round uint64, name string, start, end int64) {
	if b == nil {
		return
	}
	if len(b.spans) == cap(b.spans) {
		b.log.dropped++
		return
	}
	b.spans = append(b.spans, span{ID: id, Parent: parent, Round: round, Name: name, Start: start, End: end})
}

// add records a finished span that has no children.
func (b *spanBuf) add(name string, parent, round uint64, start, end int64) {
	b.put(b.id(), parent, round, name, start, end)
}

// writeFile writes every kept span as one JSON object per line under
// .bench_build/perfbench in the working directory.
func (l *spanLog) writeFile(workload string) (string, int, error) {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(dir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	w := bufio.NewWriter(f)
	n := 0
	var line []byte
	for _, b := range l.bufs {
		for _, s := range b.spans {
			line = append(line[:0], `{"id":`...)
			line = strconv.AppendUint(line, s.ID, 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendUint(line, s.Parent, 10)
			line = append(line, `,"round":`...)
			line = strconv.AppendUint(line, s.Round, 10)
			line = append(line, `,"name":`...)
			line = strconv.AppendQuote(line, s.Name)
			line = append(line, `,"start_ns":`...)
			line = strconv.AppendInt(line, s.Start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.End, 10)
			line = append(line, "}\n"...)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return "", 0, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", 0, err
	}
	return path, n, f.Close()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// overheadPct is how much slower the traced rate is than the untraced
// one, in percent of the untraced rate.
func overheadPct(untraced, traced float64) float64 {
	return 100 * ratio(untraced-traced, untraced)
}
