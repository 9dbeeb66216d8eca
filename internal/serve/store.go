// Package serve turns the campaign engine into a long-running service:
// an HTTP/JSON API over a persistent, resumable job queue. A submitted
// campaign becomes a write-ahead directory — the canonical campaign
// JSON, a small job-state file, and per-shard completion checkpoints in
// append-only JSONL — so a killed-and-restarted daemon resumes from the
// last checkpoint and still produces the byte-identical expansion-order
// report the local sncampaign pool would. The persistence reuses the strict canonical-encode discipline
// of internal/scenario and internal/campaign: what is on disk is what
// Parse accepts, and the report is a pure function of the campaign plus
// the recorded results.
//
// The paper's availability story is the design brief: SafetyNet keeps a
// multiprocessor serving through faults by checkpointing global state
// and recovering to the last validated checkpoint; snserved applies the
// same discipline to the campaigns that evaluate it.
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"safetynet/internal/campaign"
	"safetynet/internal/runner"
)

// Job states. A submitted job is queued; the scheduler moves it to
// running; a finished job is done or failed. A daemon that dies
// mid-campaign leaves the job running on disk, which is exactly the
// state Open re-enqueues for resumption.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Meta is one job's persisted state, stored as jobs/<id>/job.json. It
// is deliberately small: everything heavy (the campaign, the results)
// lives in its own write-ahead file, so meta writes stay atomic
// (temp-file + rename).
type Meta struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"`
	// Runs is the expansion size, fixed at submit time.
	Runs int `json:"runs"`
	// ScaleTo, when nonzero, proportionally shrinks every run at
	// execution time (campaign.Scaled), the same path sncampaign -short
	// takes locally — so a served short report matches a local one.
	ScaleTo uint64 `json:"scale_to,omitempty"`
	// SubmittedUnix timestamps the submission (informational only; no
	// report content derives from it).
	SubmittedUnix int64 `json:"submitted_unix"`
	// Crashes and ExpectFailures are filled in when the job completes,
	// so status of a done job is served without re-reducing.
	Crashes        int `json:"crashes,omitempty"`
	ExpectFailures int `json:"expect_failures,omitempty"`
	// Error records why a failed job failed.
	Error string `json:"error,omitempty"`
}

// Record is one checkpointed run completion: the run's expansion index
// plus its measured result, one canonical JSON object per shard-log
// line. Expansion order is deterministic, so the index alone names the
// run; the report reduces records by index regardless of which shard
// (or which daemon lifetime) produced them.
type Record struct {
	Index  int              `json:"index"`
	Result runner.RunResult `json:"result"`
}

// Store is the persistent job directory: jobs/<id>/ holds campaign.json
// (written and synced before the job becomes visible), job.json (the
// Meta), and shard-NNNN.log checkpoint files.
type Store struct {
	root string
}

// OpenStore opens (creating if needed) the job store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: open store: %w", err)
	}
	return &Store{root: dir}, nil
}

func (s *Store) jobDir(id string) string { return filepath.Join(s.root, "jobs", id) }

// List returns the metas of every stored job, sorted by ID (which is
// submission order). Directories without a job.json — a submission that
// died between the campaign write and the meta write — are skipped: the
// write-ahead order guarantees they were never acknowledged.
func (s *Store) List() ([]Meta, error) {
	ents, err := os.ReadDir(filepath.Join(s.root, "jobs"))
	if err != nil {
		return nil, err
	}
	var out []Meta
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		m, err := s.LoadMeta(e.Name())
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// nextID allocates the next sequential job ID (c000001, c000002, ...)
// by scanning the store, so IDs stay unique across daemon restarts.
// Callers serialize Create; two concurrent scans would pick one ID.
func (s *Store) nextID() (string, error) {
	ents, err := os.ReadDir(filepath.Join(s.root, "jobs"))
	if err != nil {
		return "", err
	}
	max := 0
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "c%06d", &n); err == nil && n > max {
			max = n
		}
	}
	return fmt.Sprintf("c%06d", max+1), nil
}

// Create persists a newly submitted job write-ahead: the canonical
// campaign bytes first (synced), then the meta. The returned meta
// carries the allocated ID and StateQueued. The job directory must not
// exist yet, so an ID collision fails instead of overwriting a job.
func (s *Store) Create(campaignJSON []byte, m Meta) (Meta, error) {
	id, err := s.nextID()
	if err != nil {
		return Meta{}, err
	}
	m.ID = id
	m.State = StateQueued
	dir := s.jobDir(id)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return Meta{}, err
	}
	if err := writeFileSync(filepath.Join(dir, "campaign.json"), campaignJSON); err != nil {
		return Meta{}, err
	}
	if err := s.SaveMeta(m); err != nil {
		return Meta{}, err
	}
	return m, nil
}

// LoadMeta reads one job's state file.
func (s *Store) LoadMeta(id string) (Meta, error) {
	data, err := os.ReadFile(filepath.Join(s.jobDir(id), "job.json"))
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return Meta{}, fmt.Errorf("serve: job %s: corrupt job.json: %w", id, err)
	}
	return m, nil
}

// SaveMeta atomically replaces one job's state file (temp + rename, the
// standard crash-safe small-file update).
func (s *Store) SaveMeta(m Meta) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(s.jobDir(m.ID), "job.json")
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, append(data, '\n')); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCampaign parses one job's submitted campaign with the same strict
// decoding the submission endpoint applied.
func (s *Store) LoadCampaign(id string) (*campaign.Campaign, error) {
	data, err := os.ReadFile(filepath.Join(s.jobDir(id), "campaign.json"))
	if err != nil {
		return nil, err
	}
	c, err := campaign.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("serve: job %s: corrupt campaign.json: %w", id, err)
	}
	return c, nil
}

// LoadRecords reads every shard checkpoint log of one job into an
// index-keyed map. A truncated final line — the append a crash cut
// short — ends that shard's log without error: everything before it was
// fully written, and the cut-off run simply re-executes on resume.
func (s *Store) LoadRecords(id string) (map[int]runner.RunResult, error) {
	ents, err := os.ReadDir(s.jobDir(id))
	if err != nil {
		return nil, err
	}
	recs := map[int]runner.RunResult{}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "shard-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		f, err := os.Open(filepath.Join(s.jobDir(id), name))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for sc.Scan() {
			var r Record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				break // torn tail from a crash; the rest never hit disk
			}
			recs[r.Index] = r.Result
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("serve: job %s: %s: %w", id, name, err)
		}
	}
	return recs, nil
}

// ShardLog is one shard's append-only checkpoint file. Append writes
// one Record per line and syncs every checkpointEvery appends, so at
// most checkpointEvery-1 completed runs can need re-execution after a
// hard machine crash (a plain process kill loses nothing that was
// written at all).
type ShardLog struct {
	f         *os.File
	w         *bufio.Writer
	every     int
	sinceSync int
}

// OpenShardLog opens (appending) the job's checkpoint log for one
// shard. checkpointEvery < 1 is treated as 1: sync on every append. A
// torn tail — the newline-less half-record a crash cut short — is
// truncated away first, so the next append starts a fresh line instead
// of concatenating onto the fragment and corrupting both records.
func (s *Store) OpenShardLog(id string, shard, checkpointEvery int) (*ShardLog, error) {
	if checkpointEvery < 1 {
		checkpointEvery = 1
	}
	path := filepath.Join(s.jobDir(id), fmt.Sprintf("shard-%04d.log", shard))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	keep, err := completeLines(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(keep, 0); err != nil {
		f.Close()
		return nil, err
	}
	return &ShardLog{f: f, w: bufio.NewWriter(f), every: checkpointEvery}, nil
}

// completeLines returns the byte length of f's newline-terminated
// prefix — everything past it is a torn tail that never fully hit
// disk.
func completeLines(f *os.File) (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := info.Size()
	buf := make([]byte, 4096)
	for size > 0 {
		n := int64(len(buf))
		if n > size {
			n = size
		}
		if _, err := f.ReadAt(buf[:n], size-n); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			return size - n + int64(i) + 1, nil
		}
		size -= n
	}
	return 0, nil
}

// Append checkpoints one completion.
func (l *ShardLog) Append(r Record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if _, err := l.w.Write(append(line, '\n')); err != nil {
		return err
	}
	l.sinceSync++
	if l.sinceSync >= l.every {
		return l.checkpoint()
	}
	return nil
}

// checkpoint flushes buffered appends through to stable storage.
func (l *ShardLog) checkpoint() error {
	l.sinceSync = 0
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close checkpoints any unsynced tail and releases the file.
func (l *ShardLog) Close() error {
	err := l.checkpoint()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFileSync writes a file and fsyncs it before returning, the
// write-ahead half of the store's crash discipline.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
