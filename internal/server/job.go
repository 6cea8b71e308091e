package server

import (
	"fmt"
	"sync"
	"time"

	"paqoc/internal/api"
	"paqoc/internal/circuit"
	"paqoc/internal/device"
	"paqoc/internal/obs"
)

// Job is one compilation request moving through the bounded queue. The
// request is parsed and validated before the job is created, so everything
// past Submit works on well-formed input.
type Job struct {
	ID string

	req      *api.CompileRequest
	logical  *circuit.Circuit
	profile  *device.Profile
	timeout  time.Duration
	priority string // "high" or "normal", validated at the handler

	mu        sync.Mutex
	state     api.JobState
	errMsg    string
	timedOut  bool
	canceled  bool
	result    *api.Result
	submitted time.Time
	started   time.Time
	finished  time.Time

	// done is closed exactly once when the job reaches a terminal state;
	// synchronous requests and pollers block on it.
	done chan struct{}

	// events is the job's bounded live stream: stage transitions, sampled
	// GRAPE convergence points, and state changes, served by
	// GET /v1/jobs/{id}/events. Closed when the job reaches a terminal
	// state so subscribers see a clean end of stream.
	events *obs.EventRing
}

// tenant is the submitting principal from the job's request ("" for
// anonymous traffic and request-less unit-test jobs).
func (j *Job) tenant() string {
	if j.req == nil {
		return ""
	}
	return j.req.Tenant
}

// backendName is the job's device profile name ("" for jobs created
// without one, e.g. in unit tests that never run the pipeline).
func (j *Job) backendName() string {
	if j.profile == nil {
		return ""
	}
	return j.profile.Name
}

// publishState stamps lifecycle events with the job's backend so SSE
// consumers see which device profile the job compiles against.
func (j *Job) publishState(state, errMsg string) {
	j.events.Publish(obs.Event{Type: obs.EventState, State: state, Err: errMsg, Backend: j.backendName()})
}

func (j *Job) start() {
	j.mu.Lock()
	j.state = api.StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.publishState(string(api.StateRunning), "")
}

// finish moves the job to its terminal state, stamped with the instant
// it finished, and releases waiters.
func (j *Job) finish(finished time.Time, res *api.Result, err error, timedOut, canceled bool) {
	j.mu.Lock()
	j.finished = finished
	if err != nil {
		j.state = api.StateFailed
		j.errMsg = err.Error()
		j.timedOut = timedOut
		j.canceled = canceled
	} else {
		j.state = api.StateDone
		j.result = res
	}
	state, errMsg := string(j.state), j.errMsg
	j.mu.Unlock()
	j.publishState(state, errMsg)
	j.events.Close()
	close(j.done)
}

// status snapshots the job under its lock as its api.JobStatus wire form.
func (j *Job) status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := api.JobStatus{
		JobID:    j.ID,
		State:    j.state,
		Backend:  j.backendName(),
		Tenant:   j.tenant(),
		Priority: j.priority,
		Error:    j.errMsg,
		TimedOut: j.timedOut,
		Canceled: j.canceled,
		Result:   j.result,
	}
	switch j.state {
	case api.StateQueued:
		st.QueuedMs = msSince(j.submitted, time.Now())
	case api.StateRunning:
		st.QueuedMs = msSince(j.submitted, j.started)
		st.RunMs = msSince(j.started, time.Now())
	default:
		st.QueuedMs = msSince(j.submitted, j.started)
		st.RunMs = msSince(j.started, j.finished)
	}
	return st
}

func msSince(from, to time.Time) float64 {
	if from.IsZero() {
		return 0
	}
	return float64(to.Sub(from)) / float64(time.Millisecond)
}

// jobStore indexes jobs by ID and bounds memory: terminal jobs beyond the
// retention cap are evicted oldest-first, so a long-running server does not
// accumulate every result it ever produced.
type jobStore struct {
	mu     sync.Mutex
	jobs   map[string]*Job
	retire []string // terminal job IDs, oldest first
	seq    uint64
	retain int
}

func newJobStore(retain int) *jobStore {
	return &jobStore{jobs: make(map[string]*Job), retain: retain}
}

// jobEventCapacity bounds each job's event ring: enough for every stage
// transition plus a sampled convergence curve per customized gate; beyond
// it the oldest events roll off.
const jobEventCapacity = 512

// add creates and registers a queued job for an already-parsed request,
// bound to its resolved device profile.
func (s *jobStore) add(req *api.CompileRequest, logical *circuit.Circuit, prof *device.Profile, timeout time.Duration) *Job {
	s.mu.Lock()
	s.seq++
	j := &Job{
		ID:        fmt.Sprintf("job-%06d", s.seq),
		req:       req,
		logical:   logical,
		profile:   prof,
		timeout:   timeout,
		priority:  normalizePriority(req.Priority),
		state:     api.StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
		events:    obs.NewEventRing(jobEventCapacity),
	}
	s.jobs[j.ID] = j
	s.mu.Unlock()
	j.publishState(string(api.StateQueued), "")
	return j
}

func (s *jobStore) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// remove deletes a job that never entered the queue (Submit failed).
// Such a job never reaches a terminal state, so retention-based eviction
// would never reclaim its request body and parsed circuit — under
// sustained overload that leak would defeat the bounded-memory design.
func (s *jobStore) remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
}

// retired records a terminal job for eviction, drops the oldest terminal
// jobs beyond the retention cap, and returns the evicted job IDs so the
// caller can log each eviction once.
func (s *jobStore) retired(j *Job) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retire = append(s.retire, j.ID)
	var evicted []string
	for len(s.retire) > s.retain {
		evicted = append(evicted, s.retire[0])
		delete(s.jobs, s.retire[0])
		s.retire = s.retire[1:]
	}
	return evicted
}

// normalizePriority folds the request's validated priority field onto its
// queue lane name.
func normalizePriority(p string) string {
	if p == "high" {
		return "high"
	}
	return "normal"
}
