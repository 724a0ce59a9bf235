package main

import (
	"net/http"
	"sync/atomic"
)

// outcome classifies one attempted operation.
type outcome int

const (
	opOK outcome = iota
	// opBenign is a refusal the protocol expects in a closed loop: 204
	// (nothing to answer yet), 409 (round already sealed, session still
	// running) and 410 (session finished).
	opBenign
	opFailed
)

// classify maps a request's status code and transport error to its
// outcome: every 2xx but 204 is OK, 204/409/410 are benign, anything
// else — another status or a transport error — failed.
func classify(code int, err error) outcome {
	switch {
	case err != nil:
		return opFailed
	case code == http.StatusNoContent, code == http.StatusConflict, code == http.StatusGone:
		return opBenign
	case code >= 200 && code < 300:
		return opOK
	default:
		return opFailed
	}
}

// ops counts attempted and failed operations: requests on the served
// workloads, runs or selections on the in-process ones.
type ops struct {
	attempted, failed atomic.Int64
}

// note counts one operation and reports whether it failed.
func (o *ops) note(oc outcome) bool {
	o.attempted.Add(1)
	if oc == opFailed {
		o.failed.Add(1)
		return true
	}
	return false
}

// noteErr counts one in-process operation.
func (o *ops) noteErr(err error) bool {
	if err != nil {
		return o.note(opFailed)
	}
	return o.note(opOK)
}

func (o *ops) failedFrac() float64 {
	a := o.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(o.failed.Load()) / float64(a)
}
