package main

import (
	"encoding/binary"
	"errors"
	"math"

	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
)

// rpcClient is the closed-loop client of rpc-migrate: it sends one request
// to its workload.Echo server, waits for the reply, records the round trip
// in simulated µs, thinks for a seeded exponential pause, and repeats until
// the horizon. It checks its own replies: every reply must carry the id
// and sequence number of the one outstanding request.
//
// Clients never migrate (only servers do), so the body is not registered
// for re-instantiation; the benchmark reads its fields after the run.
type rpcClient struct {
	id    uint32
	srv   link.ID
	until sim.Time
	think float64 // mean think time, µs
	rng   splitmix

	started bool
	waiting bool
	seq     uint32
	sentAt  sim.Time

	sent, answered, unexpected uint64
	rtts                       []uint64
}

const rpcClientKind = "bench-rpc-client"

// errNoServer means the client was spawned without its server link.
var errNoServer = errors.New("rpc client has no server link")

func (r *rpcClient) Kind() string { return rpcClientKind }

func (r *rpcClient) Step(ctx proc.Context, budget int) (int, proc.Status) {
	if r.srv == link.NilID {
		return 0, proc.Status{State: proc.Crashed, Err: errNoServer}
	}
	if !r.started {
		r.started = true
		if st, done := r.send(ctx); done {
			return 0, st
		}
	}
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if d.Op == msg.OpTimer {
			if st, done := r.send(ctx); done {
				return 0, st
			}
			continue
		}
		if !r.waiting || len(d.Body) != 8 ||
			binary.LittleEndian.Uint32(d.Body) != r.id ||
			binary.LittleEndian.Uint32(d.Body[4:]) != r.seq {
			r.unexpected++
			continue
		}
		r.waiting = false
		r.answered++
		r.rtts = append(r.rtts, uint64(ctx.Now()-r.sentAt))
		pause := sim.Time(-r.think * math.Log(1-r.rng.float64()))
		if pause < 1 {
			pause = 1
		}
		ctx.SetTimer(pause, 1)
	}
}

// send issues the next request, or ends the client past the horizon.
func (r *rpcClient) send(ctx proc.Context) (proc.Status, bool) {
	if ctx.Now() >= r.until {
		return proc.Status{State: proc.Exited}, true
	}
	r.seq++
	body := make([]byte, 8)
	binary.LittleEndian.PutUint32(body, r.id)
	binary.LittleEndian.PutUint32(body[4:], r.seq)
	if err := ctx.Send(r.srv, body); err != nil {
		return proc.Status{State: proc.Crashed, Err: err}, true
	}
	r.sent++
	r.waiting = true
	r.sentAt = ctx.Now()
	return proc.Status{}, false
}

func (r *rpcClient) Snapshot() ([]byte, error) { return nil, errors.New("rpc client does not migrate") }
func (r *rpcClient) Restore([]byte) error      { return errors.New("rpc client does not migrate") }
