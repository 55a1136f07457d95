package main

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"prima/internal/wire"
	"prima/internal/workload/brepgen"
)

const (
	opCheckout = iota
	opCheckin
)

// recorder keeps one client's raw samples of one phase: no buckets, so the
// percentiles computed from them are exact.
type recorder struct {
	start  time.Time
	done   []int64 // completion time, ns after start
	lat    []int64 // latency, ns
	kind   []uint8
	atoms  []int32 // atoms the op delivered, 0 if it failed the oracle
	failed int64
	stale  int64 // reads that showed the revision before the acknowledged one
	err    error // first failure
}

func newRecorder(start time.Time, capacity int) *recorder {
	return &recorder{
		start: start,
		done:  make([]int64, 0, capacity),
		lat:   make([]int64, 0, capacity),
		kind:  make([]uint8, 0, capacity),
		atoms: make([]int32, 0, capacity),
	}
}

func (r *recorder) add(kind uint8, t0 time.Time, lat time.Duration, atoms int, err error) {
	r.done = append(r.done, int64(t0.Sub(r.start)+lat))
	r.lat = append(r.lat, int64(lat))
	r.kind = append(r.kind, kind)
	r.atoms = append(r.atoms, int32(atoms))
	if err != nil {
		r.failed++
		if r.err == nil {
			r.err = err
		}
	}
}

// client is one closed-loop workstation: it sends its next request only
// after the previous reply has arrived and been checked.
type client struct {
	wc     *wire.Client
	oracle *oracle
	reqs   []request // the pregenerated sequence of the phase it is in
	next   int
	rev    float64 // last revision number this client wrote
	rec    *recorder
}

// take returns the client's next request; the sequence wraps at its end.
func (c *client) take() request {
	r := c.reqs[c.next%len(c.reqs)]
	c.next++
	return r
}

// do runs one generated op: a checkout, and for a checkin op the
// modification of three of the cube's faces and the checkin round trip.
func (c *client) do(r request) {
	mark := c.oracle.readBegin()
	t0 := time.Now()
	mols, err := c.wc.Checkout(r.mql())
	lat := time.Since(t0)
	var faces []uint64
	if err == nil {
		if r.cube == 0 {
			_, err = c.oracle.verifyAll(mols)
		} else {
			var stale bool
			faces, stale, err = c.oracle.checkPoint(mols, r.cube)
			switch {
			case !stale:
			case c.oracle.overlapped(mark):
				c.rec.stale++
			default:
				err = fmt.Errorf("cube %d shows the revision before the acknowledged %v with no other checkin in flight", r.cube, c.oracle.expect[r.cube])
			}
		}
	}
	atoms := 0
	if err == nil {
		atoms = len(mols) * brepgen.CubeAtoms
	}
	c.rec.add(opCheckout, t0, lat, atoms, err)
	if err != nil || !r.checkin {
		return
	}

	c.rev++
	lit := strconv.FormatFloat(c.rev, 'g', -1, 64)
	for _, f := range faces[:revisedFaces] {
		if err = c.wc.StageModify("face", f, "square_dim", lit); err != nil {
			break
		}
	}
	c.oracle.writeBegin()
	t0 = time.Now()
	if err == nil {
		_, err = c.wc.Checkin()
	}
	lat = time.Since(t0)
	c.oracle.writeEnd()
	if err == nil {
		c.oracle.acked(r.cube, c.rev)
	}
	c.rec.add(opCheckin, t0, lat, 0, err)
}

// drive gives every client a fresh recorder, runs body for each on a
// goroutine of its own, waits for them all and returns the recorders.
func drive(clients []*client, start time.Time, capacity int, body func(c *client)) []*recorder {
	recs := make([]*recorder, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		recs[i] = newRecorder(start, capacity)
		c.rec = recs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(c)
		}()
	}
	wg.Wait()
	return recs
}

// runPhase drives every client through its sequence for d and returns the
// merged outcome. The first d of the phase is cut into that many equal
// slices for the steady-state guard; capacity presizes each recorder.
func runPhase(clients []*client, d time.Duration, slices, capacity int) *phase {
	start, cpu := time.Now(), processCPU()
	recs := drive(clients, start, capacity, func(c *client) {
		for time.Since(start) < d {
			c.do(c.take())
		}
	})
	// Every client finishes the op it had begun when d ran out, so the phase
	// lasts until the last of them is done.
	return merge(recs, time.Since(start), processCPU()-cpu, d, slices)
}

// sweep has every client check out every cube once, in order. A client keeps
// what it checks out in its object buffer, so after the sweep that buffer
// has the size it keeps for the rest of the run.
func sweep(clients []*client, cubes int) *phase {
	start := time.Now()
	recs := drive(clients, start, cubes, func(c *client) {
		for k := 1; k <= cubes; k++ {
			c.do(request{cube: k})
		}
	})
	return merge(recs, time.Since(start), 0, 0, 0)
}

// phase is the merged outcome of one runPhase: every latency of the phase
// as a raw sample, so that each percentile is the exact one of the whole
// phase and a stall that hits a few seconds of it still reaches the tail.
type phase struct {
	dur      time.Duration // until the last client was done
	cpu      time.Duration // process CPU time spent
	checkout []int64       // sorted latencies, ns
	checkin  []int64
	atoms    int64 // delivered by checkouts that passed the oracle
	failed   int64
	stale    int64
	err      error // first failure
	// sliceOps counts the ops completed in each of the equal slices the
	// first d of the phase was cut into. Only the steady-state guard and
	// the report's notes look at them.
	sliceOps []int
}

func (p *phase) ops() int { return len(p.checkout) + len(p.checkin) }

func merge(recs []*recorder, dur, cpu, d time.Duration, slices int) *phase {
	p := &phase{dur: dur, cpu: cpu, sliceOps: make([]int, slices)}
	for _, r := range recs {
		p.failed += r.failed
		p.stale += r.stale
		if p.err == nil {
			p.err = r.err
		}
		for i, lat := range r.lat {
			if r.kind[i] == opCheckin {
				p.checkin = append(p.checkin, lat)
			} else {
				p.checkout = append(p.checkout, lat)
				p.atoms += int64(r.atoms[i])
			}
			if j := int(r.done[i] * int64(slices) / max(int64(d), 1)); j < slices {
				p.sliceOps[j]++
			}
		}
	}
	sortInt64(p.checkout)
	sortInt64(p.checkin)
	return p
}

// perSecond is n per second of the phase.
func (p *phase) perSecond(n int) float64 { return float64(n) / p.dur.Seconds() }

// ms is the exact pct-th percentile of sorted latencies, in milliseconds.
func ms(sorted []int64, pct float64) float64 { return float64(percentile(sorted, pct)) / 1e6 }

// drift is the steady-state measure: ops completed in the last third of the
// phase's slices over ops completed in the first third.
func (p *phase) drift() float64 {
	third := len(p.sliceOps) / 3
	first, last := 0, 0
	for i := 0; i < third; i++ {
		first += p.sliceOps[i]
		last += p.sliceOps[len(p.sliceOps)-1-i]
	}
	if first == 0 {
		return 0
	}
	return float64(last) / float64(first)
}

// sequenceLen is how many requests each client's sequence holds before it
// wraps: more than any client completes in the longest window.
const sequenceLen = 1 << 17

// dialClients connects n clients to e and hands each its sequence of w.
func dialClients(e *env, w workload, seed int64, n int, o *oracle) ([]*client, error) {
	clients := make([]*client, n)
	for i := range clients {
		wc, err := wire.Dial(e.srv.Addr())
		if err != nil {
			for _, c := range clients[:i] {
				c.wc.Close()
			}
			return nil, fmt.Errorf("dial client %d: %w", i, err)
		}
		clients[i] = &client{
			wc:     wc,
			oracle: o,
			reqs:   generate(w, seed, i, n, sequenceLen),
			rev:    100,
		}
	}
	return clients, nil
}
