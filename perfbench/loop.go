package main

import (
	"math/rand"
	"time"
)

// op is one closed-loop operation. run executes it inside the operation's
// root span (root) and returns the references it profiled. probe, when
// set, runs after a traced operation, outside its span and its latency:
// it times a layer the operation's calls hide on the same input.
type op struct {
	label string
	run   func(tr *tracer, op, root int) (refs uint64, err error)
	probe func(tr *tracer, op int) error
}

// closedLoop is one client that sends its next operation when the last
// one completes. Operations come in rounds: each round runs every op of
// the workload once, in an order drawn from the seed, so any whole number
// of rounds has the same mix whatever the seed.
type closedLoop struct {
	ops   []op
	order *rand.Rand
	round time.Duration // duration of the last whole round
}

// pass runs one round.
func (c *closedLoop) pass(tr *tracer, ph *phase) {
	start := time.Now()
	for _, i := range c.order.Perm(len(c.ops)) {
		o := c.ops[i]
		ph.attempted++
		opID, root := tr.beginOp(o.label)
		t0 := time.Now()
		refs, err := o.run(tr, opID, root)
		lat := time.Since(t0)
		tr.end(root)
		if err == nil && tr.on && o.probe != nil {
			err = o.probe(tr, opID)
		}
		if err != nil {
			ph.fail("%s: %v", o.label, err)
			continue
		}
		ph.latMs = append(ph.latMs, float64(lat)/1e6)
		ph.refs += refs
	}
	c.round = time.Since(start)
}

func (c *closedLoop) warm(tr *tracer) *phase {
	ph := &phase{}
	c.pass(tr, ph)
	return ph
}

// measure runs whole rounds while the next one, judged by the last, still
// ends within d; it runs at least one.
func (c *closedLoop) measure(d time.Duration, tr *tracer) *phase {
	ph := &phase{}
	start := time.Now()
	for {
		c.pass(tr, ph)
		if time.Since(start)+c.round > d {
			break
		}
	}
	ph.elapsed = time.Since(start)
	return ph
}
