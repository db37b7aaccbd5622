package cluster

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"galsim/internal/campaign"
	"galsim/internal/pipeline"
	"galsim/internal/wal"
)

// JobStore is the coordinator's durability seam. The coordinator writes
// three transitions through it — campaign enqueued, job completed, campaign
// finished — and on boot asks it for every campaign that was enqueued but
// never finished, so a half-done sweep resumes after a crash instead of
// vanishing. The default (a nil Config.Store) keeps everything in memory,
// exactly the pre-journal behavior; JournalStore persists the transitions
// to a write-ahead log.
//
// Store errors never corrupt the in-memory fleet: a failed append is
// surfaced to the caller (submit) or logged (completion/finish), degrading
// to at-least-once re-execution after a restart — safe, because job
// execution is deterministic and content-cached.
type JobStore interface {
	// CampaignEnqueued durably records a campaign before its jobs enter the
	// in-memory queue (write-ahead: if this fails, the campaign is rejected).
	CampaignEnqueued(id, requestID string, pri campaign.Priority, specs []campaign.RunSpec) error
	// JobCompleted durably records one finished unit, keyed by the spec's
	// content key (the same identity the result cache uses).
	JobCompleted(campaignID, specKey string, stats *pipeline.Stats) error
	// CampaignFinished marks a campaign terminal (errMsg empty on success).
	// Stores may compact: a finished campaign's records are dead weight.
	CampaignFinished(campaignID, errMsg string) error
	// JobCheckpoint durably records the latest mid-run checkpoint for one
	// in-flight unit (an accepted POST /jobs/checkpoint), keyed like
	// JobCompleted by the spec's content key. A later checkpoint for the
	// same key supersedes the earlier one; a completion retires it. Recover
	// hands the latest one per unfinished unit back
	// (RecoveredCampaign.Checkpoints), so a lost coordinator resumes long
	// jobs from their last checkpoint instead of from zero.
	JobCheckpoint(campaignID, specKey string, snap []byte) error
	// Recover returns every campaign enqueued but not finished, with
	// whatever completions were journaled for it. Called once, before the
	// coordinator serves traffic.
	Recover() ([]RecoveredCampaign, error)
	// WALStats reports the journal's counters; the coordinator exports them
	// as the galsim_wal_* metric family.
	WALStats() wal.Stats
	// Close releases the store's resources.
	Close() error
}

// RecoveredCampaign is one unfinished campaign replayed from a JobStore.
type RecoveredCampaign struct {
	ID        string
	RequestID string
	Priority  campaign.Priority
	Specs     []campaign.RunSpec
	// Completed maps spec content keys to journaled results: these units
	// are filled from the journal on resume, not re-run.
	Completed map[string]*pipeline.Stats
	// Checkpoints maps spec content keys to the latest journaled mid-run
	// snapshot (envelope-encoded) of units that were in flight at the
	// crash: re-dispatched jobs carry them so workers resume rather than
	// restart. Keys in Completed never appear here.
	Checkpoints map[string][]byte
}

// walRecord is the JSON payload inside each WAL frame. Replay is
// idempotent — a duplicate enqueue/done/finish for the same campaign is a
// no-op — which is what makes the WAL's crash-during-compaction story safe
// (old segments replay before the compacted snapshot).
type walRecord struct {
	V    int    `json:"v"`
	Type string `json:"t"` // "enqueue" | "done" | "ckpt" | "finish"
	ID   string `json:"id"`

	// enqueue
	RequestID string             `json:"req,omitempty"`
	Priority  int                `json:"pri,omitempty"`
	Specs     []campaign.RunSpec `json:"specs,omitempty"`

	// done, ckpt
	Key   string          `json:"key,omitempty"`
	Stats *pipeline.Stats `json:"stats,omitempty"`
	Snap  []byte          `json:"snap,omitempty"` // ckpt: envelope-encoded snapshot

	// finish
	Error string `json:"err,omitempty"`
}

const walRecordVersion = 1

// JournalStore is the WAL-backed JobStore: every transition is one
// checksummed record in an append-only segmented log (internal/wal), and a
// finished campaign triggers compaction — the log is rewritten to hold only
// the still-live campaigns, so it tracks the working set instead of growing
// with history.
type JournalStore struct {
	mu   sync.Mutex
	log  *wal.Log
	live map[string]*journalCampaign // unfinished campaigns, mirrored for compaction
}

type journalCampaign struct {
	rec  walRecord // the enqueue record, replayed verbatim on compaction
	done map[string]*pipeline.Stats
	ckpt map[string][]byte // latest checkpoint per not-yet-done unit
}

// OpenJournal opens (or creates) a journal in dir and replays it into the
// store's live set; Recover then hands the unfinished campaigns to the
// coordinator. A torn tail from a crash mid-append is truncated by the WAL
// layer; mid-log corruption is a hard error — silently dropping campaigns
// would defeat the journal's whole purpose.
func OpenJournal(dir string, opt wal.Options) (*JournalStore, error) {
	l, err := wal.Open(dir, opt)
	if err != nil {
		return nil, err
	}
	s := &JournalStore{log: l, live: map[string]*journalCampaign{}}
	if err := l.Replay(s.apply); err != nil {
		l.Close()
		return nil, fmt.Errorf("cluster: replaying journal %s: %w", dir, err)
	}
	return s, nil
}

// apply folds one journal record into the live set. Unknown record types
// are skipped (forward compatibility: a newer coordinator's journal should
// degrade to re-running work, not refuse to start), malformed JSON is a
// hard error (the WAL checksum passed, so this is a software bug, not a
// torn write).
func (s *JournalStore) apply(payload []byte) error {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("decoding journal record: %w", err)
	}
	switch rec.Type {
	case "enqueue":
		if _, ok := s.live[rec.ID]; !ok {
			s.live[rec.ID] = &journalCampaign{rec: rec, done: map[string]*pipeline.Stats{}, ckpt: map[string][]byte{}}
		}
	case "done":
		if camp, ok := s.live[rec.ID]; ok && rec.Stats != nil {
			if _, dup := camp.done[rec.Key]; !dup {
				camp.done[rec.Key] = rec.Stats
			}
			delete(camp.ckpt, rec.Key) // a completion retires the unit's checkpoint
		}
	case "ckpt":
		// Latest checkpoint wins; one journaled after the unit's completion
		// (a zombie worker's late post replayed out of order cannot happen —
		// appends are ordered — but a dup-done replay can) stays retired.
		if camp, ok := s.live[rec.ID]; ok && len(rec.Snap) > 0 {
			if _, done := camp.done[rec.Key]; !done {
				camp.ckpt[rec.Key] = rec.Snap
			}
		}
	case "finish":
		delete(s.live, rec.ID)
	}
	return nil
}

func (s *JournalStore) append(rec walRecord) error {
	rec.V = walRecordVersion
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("cluster: encoding journal record: %w", err)
	}
	return s.log.Append(payload)
}

// CampaignEnqueued implements JobStore.
func (s *JournalStore) CampaignEnqueued(id, requestID string, pri campaign.Priority, specs []campaign.RunSpec) error {
	rec := walRecord{Type: "enqueue", ID: id, RequestID: requestID, Priority: int(pri), Specs: specs}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(rec); err != nil {
		return err
	}
	s.live[id] = &journalCampaign{rec: rec, done: map[string]*pipeline.Stats{}, ckpt: map[string][]byte{}}
	return nil
}

// JobCompleted implements JobStore.
func (s *JournalStore) JobCompleted(campaignID, specKey string, stats *pipeline.Stats) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	camp, ok := s.live[campaignID]
	if !ok {
		return nil // campaign already finished (stale duplicate completion)
	}
	if _, dup := camp.done[specKey]; dup {
		return nil
	}
	if err := s.append(walRecord{Type: "done", ID: campaignID, Key: specKey, Stats: stats}); err != nil {
		return err
	}
	camp.done[specKey] = stats
	delete(camp.ckpt, specKey)
	return nil
}

// JobCheckpoint implements JobStore: the latest checkpoint per unit
// is kept live (superseded ones become dead log weight until the next
// compaction rewrites the log with only the newest). A checkpoint for an
// already-completed unit, or a finished campaign, is a stale zombie post
// and is dropped without an append.
func (s *JournalStore) JobCheckpoint(campaignID, specKey string, snap []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	camp, ok := s.live[campaignID]
	if !ok {
		return nil
	}
	if _, done := camp.done[specKey]; done {
		return nil
	}
	if err := s.append(walRecord{Type: "ckpt", ID: campaignID, Key: specKey, Snap: snap}); err != nil {
		return err
	}
	camp.ckpt[specKey] = snap
	return nil
}

// CampaignFinished implements JobStore: the terminal record is appended,
// then the log is compacted down to the records of the remaining live
// campaigns (or reset to empty when none remain).
func (s *JournalStore) CampaignFinished(campaignID, errMsg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.live[campaignID]; !ok {
		return nil
	}
	if err := s.append(walRecord{Type: "finish", ID: campaignID, Error: errMsg}); err != nil {
		return err
	}
	delete(s.live, campaignID)
	return s.compactLocked()
}

// compactLocked rewrites the log to exactly the live campaigns' records.
// Idempotent-replay semantics make a crash anywhere in here safe.
func (s *JournalStore) compactLocked() error {
	ids := make([]string, 0, len(s.live))
	for id := range s.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var records [][]byte
	for _, id := range ids {
		camp := s.live[id]
		enq, err := json.Marshal(camp.rec)
		if err != nil {
			return fmt.Errorf("cluster: encoding journal snapshot: %w", err)
		}
		records = append(records, enq)
		keys := make([]string, 0, len(camp.done))
		for k := range camp.done {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			done, err := json.Marshal(walRecord{V: walRecordVersion, Type: "done", ID: id, Key: k, Stats: camp.done[k]})
			if err != nil {
				return fmt.Errorf("cluster: encoding journal snapshot: %w", err)
			}
			records = append(records, done)
		}
		ckeys := make([]string, 0, len(camp.ckpt))
		for k := range camp.ckpt {
			ckeys = append(ckeys, k)
		}
		sort.Strings(ckeys)
		for _, k := range ckeys {
			ckpt, err := json.Marshal(walRecord{V: walRecordVersion, Type: "ckpt", ID: id, Key: k, Snap: camp.ckpt[k]})
			if err != nil {
				return fmt.Errorf("cluster: encoding journal snapshot: %w", err)
			}
			records = append(records, ckpt)
		}
	}
	return s.log.Rewrite(records)
}

// Recover implements JobStore.
func (s *JournalStore) Recover() ([]RecoveredCampaign, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.live))
	for id := range s.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]RecoveredCampaign, 0, len(ids))
	for _, id := range ids {
		camp := s.live[id]
		done := make(map[string]*pipeline.Stats, len(camp.done))
		for k, st := range camp.done {
			done[k] = st
		}
		ckpt := make(map[string][]byte, len(camp.ckpt))
		for k, snap := range camp.ckpt {
			ckpt[k] = snap
		}
		out = append(out, RecoveredCampaign{
			ID:          id,
			RequestID:   camp.rec.RequestID,
			Priority:    campaign.Priority(camp.rec.Priority),
			Specs:       camp.rec.Specs,
			Completed:   done,
			Checkpoints: ckpt,
		})
	}
	return out, nil
}

// WALStats implements JobStore.
func (s *JournalStore) WALStats() wal.Stats { return s.log.Stats() }

// Close implements JobStore.
func (s *JournalStore) Close() error { return s.log.Close() }

var _ JobStore = (*JournalStore)(nil)
