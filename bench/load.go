// load.go is the closed-loop load generator: a fixed number of clients pull
// the next operation of the workload's fixed sequence, send it to stemsd,
// read the NDJSON stream to its trailer, and check it against the
// generator's reference. Each caller waits for its own reply, so the load is
// closed-loop by nature; the total work is a fixed op count, never a time
// box, so two runs of one seed send the same requests.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed operation as the client saw it; times are offsets
// from the window's start.
type sample struct {
	kind     opKind
	start    time.Duration
	ack      time.Duration // an insert's acknowledgement fully read
	firstRow time.Duration // first {"row" line; 0 when the op streams no rows
	end      time.Duration // last byte of the trailer (ingest: 4th delta row)
	failed   bool
}

// segmentRun is one segment of the measured window as the clients and the
// kernel saw it.
type segmentRun struct {
	samples []sample
	wall    time.Duration
	cpuS    float64 // Δ(utime+stime) of stemsd
}

// window is the measured window: the plan's sequence, run segment by
// segment, with stemsd's allocation counters read before and after all of it.
type window struct {
	segs   []segmentRun
	allocs memstats // ΔMallocs, ΔTotalAlloc of stemsd over the whole window
	failed int
	// firstFailure keeps one diagnostic; the count is in failed.
	firstFailure string
}

// samples returns every op of the window, in issue order.
func (w *window) samples() []sample {
	var out []sample
	for _, sg := range w.segs {
		out = append(out, sg.samples...)
	}
	return out
}

// checker verifies streamed rows against an op's reference. The row count is
// checked on every op; the full multiset on the first op of each distinct
// statement text and on every ingest (four lines).
type checker struct {
	mu   sync.Mutex
	seen map[string]bool
}

// needSet reports whether this op must have its full row multiset compared.
func (ck *checker) needSet(o *op) bool {
	switch o.kind {
	case opIngest:
		return true
	case opInsertSQL:
		return false
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if ck.seen[o.sql] {
		return false
	}
	ck.seen[o.sql] = true
	return true
}

// sameMultiset compares streamed lines with the reference, ignoring order.
func sameMultiset(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	m := make(map[string]int, len(want))
	for _, l := range want {
		m[l]++
	}
	for _, l := range got {
		if m[l] == 0 {
			return false
		}
		m[l]--
	}
	return true
}

var (
	rowPrefix   = []byte(`{"row"`)
	donePrefix  = []byte(`{"done"`)
	errorPrefix = []byte(`{"error"`)
)

// do runs one operation to completion and returns its sample, with times as
// offsets from t0; why explains a failure.
func (sv *target) do(o *op, t0 time.Time) (s sample, why string) {
	s.kind = o.kind
	fail := func(why string) (sample, string) {
		s.end, s.failed = time.Since(t0), true
		return s, why
	}
	wantSet := sv.ck.needSet(o)
	var got []string
	s.start = time.Since(t0)
	resp, err := sv.c.client.Post(sv.c.base+o.path, "application/json", strings.NewReader(o.body))
	if err != nil {
		return fail(err.Error())
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fail(fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(b)))
	}
	if o.kind == opIngest {
		// The ack first, then exactly four delta rows on the subscription:
		// one blocking chain, read by the one goroutine that sent the rows.
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return fail(err.Error())
		}
		s.ack = time.Since(t0)
		for len(got) < len(o.want) {
			line, err := sv.sub.r.ReadSlice('\n')
			if err != nil || !bytes.HasPrefix(line, rowPrefix) {
				return fail(fmt.Sprintf("subscription: %v %q", err, line))
			}
			if len(got) == 0 {
				s.firstRow = time.Since(t0)
			}
			got = append(got, text(line))
		}
		s.end = time.Since(t0)
		sv.sub.deltas += len(got)
	} else {
		br := bufio.NewReaderSize(resp.Body, 16<<10)
		rows, done := 0, false
		for !done {
			line, err := br.ReadSlice('\n')
			if err != nil {
				break
			}
			switch {
			case bytes.HasPrefix(line, rowPrefix):
				if rows == 0 {
					s.firstRow = time.Since(t0)
				}
				rows++
				if wantSet {
					got = append(got, text(line))
				}
			case bytes.HasPrefix(line, errorPrefix):
				why = text(line)
				done = true
			case o.kind == opInsertSQL || bytes.HasPrefix(line, donePrefix):
				// A SELECT ends with its done trailer; an INSERT's whole
				// reply is one JSON object.
				s.end = time.Since(t0)
				s.ack = s.end
				done = true
			}
		}
		io.Copy(io.Discard, resp.Body) // reach EOF so the connection is reused
		switch {
		case why != "":
		case s.end == 0:
			why = "stream ended without a trailer"
		case rows != len(o.want):
			why = fmt.Sprintf("got %d rows, reference has %d", rows, len(o.want))
		}
		if why != "" {
			return fail(why + ": " + o.body)
		}
	}
	if wantSet && !sameMultiset(got, o.want) {
		s.failed = true
		return s, "row multiset differs from the reference: " + o.body
	}
	return s, ""
}

// text is one NDJSON line without its newline.
func text(line []byte) string { return string(bytes.TrimSuffix(line, []byte("\n"))) }

// runOps drives ops through clients closed-loop callers. Callers share one
// cursor over the sequence, so the request sequence is fixed and every
// caller stays busy until the sequence is exhausted. It returns the samples
// in issue order, the wall time, and the failures with one diagnostic.
func (sv *target) runOps(ops []op, clients int) (samples []sample, wall time.Duration, failed int, why string) {
	samples = make([]sample, len(ops))
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				s, err := sv.do(&ops[i], t0)
				samples[i] = s
				if s.failed {
					// A failed op voids the run: stop issuing work, so a
					// wedged server costs one timeout, not one per op.
					next.Store(int64(len(ops)))
					mu.Lock()
					if failed == 0 {
						why = err
					}
					failed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(t0), failed, why
}

// subscription is the standing query ingest_subscribe holds open.
type subscription struct {
	body     io.ReadCloser
	r        *bufio.Reader
	snapshot int // rows streamed before the snapshot marker
	deltas   int // delta rows read since
}

// subscribe opens the unfiltered 3-way join as a standing query and reads
// its snapshot up to the marker, checking it against the reference.
func (c *child) subscribe(want []string) (*subscription, error) {
	resp, err := c.client.Post(c.base+"/query", "application/json",
		strings.NewReader(`{"sql":"`+joinSQL+`","subscribe":true}`))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("bench: subscribe: %s: %s", resp.Status, b)
	}
	s := &subscription{body: resp.Body, r: bufio.NewReaderSize(resp.Body, 64<<10)}
	var got []string
	for {
		line, err := s.r.ReadSlice('\n')
		if err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("bench: subscription snapshot: %w", err)
		}
		if !bytes.HasPrefix(line, rowPrefix) {
			if bytes.HasPrefix(line, []byte(`{"snapshot"`)) {
				break
			}
			resp.Body.Close()
			return nil, fmt.Errorf("bench: subscription snapshot: unexpected line %q", line)
		}
		got = append(got, text(line))
	}
	if !sameMultiset(got, want) {
		resp.Body.Close()
		return nil, errors.New("bench: subscription snapshot differs from the reference")
	}
	s.snapshot = len(got)
	return s, nil
}

// target is one stemsd with what a workload's clients share: the reference
// checker and, on ingest_subscribe, the open subscription.
type target struct {
	c   *child
	ck  *checker
	sub *subscription // nil unless the workload holds a standing query
	p   *plan
}

func registerSQL(table string) string {
	return fmt.Sprintf(`{"sql":"REGISTER TABLE %s FROM '%s.csv'"}`, table, table)
}

// setUp boots stemsd over the plan's CSVs in dir and brings it to the start
// of the measured window: REGISTER ×6, PREPARE hot, warm-up — with the
// subscription opened after the warm-up's J(k) prefix on ingest_subscribe,
// so the warm-up inserts warm the delta path too.
func setUp(bin, dir string, w *workload, p *plan) (*target, error) {
	if err := p.data.writeCSVs(dir); err != nil {
		return nil, err
	}
	c, err := startStemsd(bin, dir, w.flags)
	if err != nil {
		return nil, err
	}
	sv := &target{c: c, ck: &checker{seen: map[string]bool{}}, p: p}
	if err := sv.warmUp(w); err != nil {
		sv.tearDown()
		return nil, err
	}
	return sv, nil
}

func (sv *target) warmUp(w *workload) error {
	for _, t := range tableNames {
		if _, err := sv.c.post("/query", registerSQL(t)); err != nil {
			return err
		}
	}
	if _, err := sv.c.post("/query", `{"sql":"PREPARE hot AS `+smallSQL+`"}`); err != nil {
		return err
	}
	if _, _, failed, why := sv.runOps(sv.p.warm[:sv.p.warmJoins], 1); failed > 0 {
		return fmt.Errorf("bench: warm-up: %s", why)
	}
	if w.subscribes {
		var err error
		if sv.sub, err = sv.c.subscribe(sv.p.data.baseJoinLines()); err != nil {
			return err
		}
	}
	if _, _, failed, why := sv.runOps(sv.p.warm[sv.p.warmJoins:], w.clients); failed > 0 {
		return fmt.Errorf("bench: warm-up: %s", why)
	}
	return nil
}

// tearDown closes the subscription and drains the child; see child.stop for
// what counts as an unclean shutdown.
func (sv *target) tearDown() error {
	if sv.sub != nil {
		sv.sub.body.Close()
	}
	return sv.c.stop()
}

// runWindow runs the whole measured sequence, every run, however long the
// box takes over it: the op count is the contract. The sequence is cut into
// nSegs consecutive segments, each bracketed by reads of stemsd's CPU time
// (a /proc read, nothing the server sees); its clients finish a segment
// before the next begins. The allocation counters are scraped only before
// and after the window.
func (sv *target) runWindow(clients, nSegs int) (*window, error) {
	win := &window{}
	// A scrape reads the counters first and then allocates its page, so the
	// opening scrape's page would be billed to the window; a scrape just
	// before it measures what one page costs.
	pre, err := sv.c.scrapeAllocs()
	if err != nil {
		return nil, err
	}
	a0, err := sv.c.scrapeAllocs()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nSegs && win.failed == 0; i++ {
		cpu0, err := sv.c.cpuSeconds()
		if err != nil {
			return nil, err
		}
		sg := segmentRun{}
		sg.samples, sg.wall, win.failed, win.firstFailure = sv.runOps(sv.p.segment(i, nSegs), clients)
		cpu1, err := sv.c.cpuSeconds()
		if err != nil {
			return nil, err
		}
		sg.cpuS = cpu1 - cpu0
		win.segs = append(win.segs, sg)
	}
	a1, err := sv.c.scrapeAllocs()
	if err != nil {
		return nil, err
	}
	win.allocs = memstats{
		mallocs:    a1.mallocs - a0.mallocs - (a0.mallocs - pre.mallocs),
		totalAlloc: a1.totalAlloc - a0.totalAlloc - (a0.totalAlloc - pre.totalAlloc),
	}
	return win, nil
}
