package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Recovery is the result of replaying a journal directory: the folded
// per-job state in first-accepted order, plus forensic detail about what
// was read and what (if anything) was discarded from the tail.
type Recovery struct {
	// Jobs is the latest-record-wins state of every job the journal
	// remembers, ordered by first-accepted LSN.
	Jobs []*JobState
	// LastLSN is the highest valid LSN replayed (0 for an empty journal).
	LastLSN uint64
	// SnapshotLSN is the LSN of the compaction snapshot replay started
	// from (0 when none existed).
	SnapshotLSN uint64
	// Records counts the live records replayed past the snapshot.
	Records int
	// TornBytes is how many trailing bytes of the final segment were
	// discarded as a torn tail; TornReason says why. Opening the journal
	// for write truncates them away.
	TornBytes  int64
	TornReason string

	tornPath   string
	tornOffset int64
}

// Recover replays a journal directory read-only. An empty or missing
// directory yields an empty recovery. Corruption anywhere but the tail of
// the final segment is a hard error naming the file and byte offset.
func Recover(dir string) (*Recovery, error) {
	rec := &Recovery{}
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return rec, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: recover: %w", err)
	}

	var segs []segmentInfo
	var snaps []uint64
	for _, e := range entries {
		if first, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segmentInfo{path: filepath.Join(dir, e.Name()), first: first})
		} else if lsn, ok := parseSnapshotName(e.Name()); ok {
			snaps = append(snaps, lsn)
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].first < segs[b].first })
	sort.Slice(snaps, func(a, b int) bool { return snaps[a] < snaps[b] })

	state := make(map[string]*JobState)
	var order []string
	if len(snaps) > 0 {
		lsn := snaps[len(snaps)-1]
		if err := loadSnapshot(snapshotPath(dir, lsn), lsn, state, &order); err != nil {
			return nil, err
		}
		rec.SnapshotLSN = lsn
	}
	rec.LastLSN = rec.SnapshotLSN

	for i, seg := range segs {
		last := i == len(segs)-1
		if err := replaySegment(seg, last, rec, state, &order); err != nil {
			return nil, err
		}
		if rec.tornPath != "" {
			break // tail discarded; nothing follows by definition of "last"
		}
	}

	rec.Jobs = make([]*JobState, 0, len(order))
	for _, id := range order {
		rec.Jobs = append(rec.Jobs, state[id])
	}
	sort.SliceStable(rec.Jobs, func(a, b int) bool { return rec.Jobs[a].FirstLSN < rec.Jobs[b].FirstLSN })
	return rec, nil
}

type segmentInfo struct {
	path  string
	first uint64
}

// replaySegment folds one segment's records into state. In the final
// segment an invalid record marks a torn tail (recorded, not fatal); in
// any earlier segment it is hard corruption.
func replaySegment(seg segmentInfo, last bool, rec *Recovery, state map[string]*JobState, order *[]string) error {
	f, err := os.Open(seg.path)
	if err != nil {
		return fmt.Errorf("journal: recover: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("journal: recover: %w", err)
	}
	size := info.Size()

	br := bufio.NewReaderSize(f, 1<<16)
	var offset int64
	tear := func(reason string) error {
		if !last {
			return fmt.Errorf("journal: %s: corrupt record at offset %d: %s", seg.path, offset, reason)
		}
		rec.TornBytes = size - offset
		rec.TornReason = reason
		rec.tornPath = seg.path
		rec.tornOffset = offset
		return nil
	}

	for {
		line, err := br.ReadBytes('\n')
		if len(line) == 0 && err == io.EOF {
			return nil
		}
		if err == io.EOF {
			// Bytes after the last newline: a half-written append.
			return tear("truncated record (no trailing newline)")
		}
		if err != nil {
			return fmt.Errorf("journal: %s: read: %w", seg.path, err)
		}
		r, derr := decodeRecord(line[:len(line)-1])
		if derr != nil {
			return tear(derr.Error())
		}
		if r.LSN <= rec.SnapshotLSN {
			// Already folded into the snapshot (a compaction crashed
			// before deleting this segment).
			offset += int64(len(line))
			continue
		}
		if r.LSN != rec.LastLSN+1 {
			return fmt.Errorf("journal: %s: offset %d: LSN %d breaks continuity (want %d)",
				seg.path, offset, r.LSN, rec.LastLSN+1)
		}
		foldRecord(state, order, r)
		rec.LastLSN = r.LSN
		rec.Records++
		offset += int64(len(line))
	}
}

// loadSnapshot reads one compaction snapshot into the state map.
func loadSnapshot(path string, lsn uint64, state map[string]*JobState, order *[]string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	defer f.Close()
	var snap snapshotFile
	if err := json.NewDecoder(f).Decode(&snap); err != nil {
		return fmt.Errorf("journal: snapshot %s is corrupt: %w", path, err)
	}
	if snap.LSN != lsn {
		return fmt.Errorf("journal: snapshot %s: header LSN %d does not match file name LSN %d", path, snap.LSN, lsn)
	}
	for _, js := range snap.Jobs {
		if js.Job == "" {
			return fmt.Errorf("journal: snapshot %s: entry with empty job ID", path)
		}
		cp := *js
		state[js.Job] = &cp
		*order = append(*order, js.Job)
	}
	return nil
}

func parseSegmentName(name string) (uint64, bool) {
	return parseHexName(name, "wal-", ".log")
}

func parseSnapshotName(name string) (uint64, bool) {
	return parseHexName(name, "snap-", ".json")
}

func parseHexName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
