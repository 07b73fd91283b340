package serve

import (
	"net/http"
	"sync"
	"time"
)

// JobInfo is one unit of request-driven compute as /v1/jobs reports it:
// identity (trace and request IDs, so it joins with logs, spans and the
// flight recorder), what it is, and how it is going or how it went.
type JobInfo struct {
	ID        int64     `json:"id"`
	Route     string    `json:"route"`
	Network   string    `json:"network,omitempty"`
	TraceID   string    `json:"trace_id,omitempty"`
	RequestID string    `json:"request_id,omitempty"`
	Started   time.Time `json:"started"`
	// CacheKey is the content address of a harden job (the same value
	// the response carries in X-RSN-Cache-Key); empty for routes whose
	// results are not content-addressed.
	CacheKey string `json:"cache_key,omitempty"`
	// State is "running" or "done".
	State string `json:"state"`
	// Status is set once done: "ok", "error", "panic" or "interrupted".
	Status string  `json:"status,omitempty"`
	Error  string  `json:"error,omitempty"`
	DurMS  float64 `json:"dur_ms,omitempty"`
	// Generation is the evolutionary progress last reported by the job
	// (running jobs update it live; -1 until the first generation).
	Generation int `json:"generation"`
}

// jobRegistry tracks the running jobs and a bounded ring of finished
// ones, serving the live view behind GET /v1/jobs. All updates take one
// mutex; the per-generation progress update is a field store, cheap
// enough for every generation of a streaming run.
type jobRegistry struct {
	mu     sync.Mutex
	seq    int64
	active map[int64]*JobInfo
	recent []JobInfo // ring, newest at next-1
	next   int
}

func newJobRegistry(history int) *jobRegistry {
	if history < 1 {
		history = 1
	}
	return &jobRegistry{
		active: make(map[int64]*JobInfo, 16),
		recent: make([]JobInfo, 0, history),
	}
}

// begin registers a starting job and returns its ID.
func (j *jobRegistry) begin(info JobInfo) int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	info.ID = j.seq
	info.State = "running"
	info.Generation = -1
	j.active[info.ID] = &info
	return info.ID
}

// progress records the job's latest completed generation.
func (j *jobRegistry) progress(id int64, gen int) {
	j.mu.Lock()
	if info, ok := j.active[id]; ok {
		info.Generation = gen
	}
	j.mu.Unlock()
}

// finish moves the job from active to the recent ring.
func (j *jobRegistry) finish(id int64, status, errMsg string, dur time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	info, ok := j.active[id]
	if !ok {
		return
	}
	delete(j.active, id)
	info.State = "done"
	info.Status = status
	info.Error = errMsg
	info.DurMS = float64(dur) / float64(time.Millisecond)
	if len(j.recent) < cap(j.recent) {
		j.recent = append(j.recent, *info)
	} else {
		j.recent[j.next] = *info
	}
	j.next = (j.next + 1) % cap(j.recent)
}

// jobsSnapshot is the body of GET /v1/jobs.
type jobsSnapshot struct {
	// Active jobs, oldest first. Recent finished jobs, newest first.
	Active []JobInfo `json:"active"`
	Recent []JobInfo `json:"recent"`
}

func (j *jobRegistry) snapshot() jobsSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := jobsSnapshot{
		Active: make([]JobInfo, 0, len(j.active)),
		Recent: make([]JobInfo, 0, len(j.recent)),
	}
	for _, info := range j.active {
		s.Active = append(s.Active, *info)
	}
	// Oldest first — stable across snapshots of the same set.
	for a := 1; a < len(s.Active); a++ {
		for b := a; b > 0 && s.Active[b].ID < s.Active[b-1].ID; b-- {
			s.Active[b], s.Active[b-1] = s.Active[b-1], s.Active[b]
		}
	}
	for i := 0; i < len(j.recent); i++ {
		idx := (j.next - 1 - i + len(j.recent)) % len(j.recent)
		s.Recent = append(s.Recent, j.recent[idx])
	}
	return s
}

// handleJobs serves GET /v1/jobs: the running jobs with their live
// generation progress, and the recent finished ones.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.jobs.snapshot())
}
