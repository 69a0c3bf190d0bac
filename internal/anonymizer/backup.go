package anonymizer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
)

// This file is the backup/restore half of the data-dir lifecycle toolkit:
// WriteBackup streams a live store (hot backup, the serve "backup" op),
// BackupDir streams a quiesced directory, and RestoreArchive seeds a fresh
// data directory from either. Reshard (reshard.go) is the third lifecycle
// operation. A lost data directory is a permanently unrecoverable set of
// cloaked regions — the keys ARE the reversibility — so backup shipping is
// not an optimization here; it is the only way the paper's reversibility
// guarantee survives the machine.

// countWriter counts bytes through to w.
type countWriter struct {
	w io.Writer
	n int64
}

// Write implements io.Writer.
func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteBackup streams a consistent hot backup of the store to w as one
// CRC-framed archive and returns the byte count written. Archives keep
// the version-1 per-shard interchange format — one snapshot plus one WAL
// tail per shard, version-1 META — whatever the live layout, so any
// archive restores anywhere and the restored directory migrates on its
// first open. It first forces a compaction of every shard (Snapshot), so
// an fsync failure anywhere in the snapshot path fails the backup rather
// than shipping an unsynced image; it then copies each shard's snapshot
// and synthesizes its WAL tail from the unified log under that shard's
// read lock, so every shard in the archive is a consistent prefix of its
// mutation stream — exactly the guarantee crash recovery relies on. The
// store stays live throughout: mutations landing while the backup streams
// are captured per shard up to the moment its lock is taken.
func (s *DurableStore) WriteBackup(w io.Writer) (int64, error) {
	if err := s.needJournal("backup"); err != nil {
		return 0, err
	}
	if err := s.Snapshot(); err != nil {
		return 0, fmt.Errorf("anonymizer: backup quiesce: %w", err)
	}
	cw := &countWriter{w: w}
	aw := newArchiveWriter(cw)
	aw.header(len(s.shards), s.nextID.Load(), nil)
	meta, err := encodeMeta(len(s.shards))
	if err != nil {
		return cw.n, err
	}
	aw.file(metaFile, 0, meta)
	for i, sh := range s.shards {
		if aw.err != nil {
			break
		}
		sh.mu.RLock()
		seq := sh.streamSeq
		snap, serr := os.ReadFile(sh.snapPath)
		wal, werr := s.shardTailLocked(sh)
		sh.mu.RUnlock()
		if serr != nil {
			return cw.n, fmt.Errorf("anonymizer: backup snapshot read: %w", serr)
		}
		if werr != nil {
			return cw.n, fmt.Errorf("anonymizer: backup wal read: %w", werr)
		}
		// Each shard file record carries the shard's stream offset at copy
		// time, so the archive's watermark — the position an incremental
		// backup can continue from — is readable from the archive itself.
		aw.file(shardSnapName(i), seq, snap)
		aw.file(shardWALName(i), seq, wal)
	}
	return cw.n, aw.finish()
}

// shardTailLocked copies the shard's post-snapshot records out of the
// unified log as contiguous WAL-style bytes (the caller holds the shard
// lock, which pins the entries' segments against reclaim). These are the
// exact frames the shard appended, so a restored shard WAL is
// byte-identical to what the version-1 engine would have held.
func (s *DurableStore) shardTailLocked(sh *durableShard) ([]byte, error) {
	if len(sh.entries) == 0 {
		return nil, nil
	}
	var total int64
	for _, e := range sh.entries {
		total += int64(e.n)
	}
	buf := make([]byte, total)
	off := 0
	for _, e := range sh.entries {
		if _, err := e.seg.f.ReadAt(buf[off:off+int(e.n)], e.off); err != nil {
			return nil, err
		}
		off += int(e.n)
	}
	return buf, nil
}

// BackupDir streams a closed data directory to w as one CRC-framed archive
// and returns the byte count written. Both layouts are accepted — a
// version-2 directory's unified log is demultiplexed back into per-shard
// WAL tails, because archives keep the version-1 per-shard interchange
// format. The directory must not be open in a live store (stop the
// server, or use WriteBackup / the serve backup op for hot backups):
// BackupDir reads the files as they are, and a concurrent writer could
// tear them mid-record.
func BackupDir(w io.Writer, dir string) (int64, error) {
	shards, version, err := readMeta(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, fmt.Errorf("anonymizer: %s is not a durable data directory (no %s)", dir, metaFile)
		}
		return 0, err
	}
	cw := &countWriter{w: w}
	aw := newArchiveWriter(cw)
	aw.header(shards, 0, nil)
	meta, err := encodeMeta(shards)
	if err != nil {
		return cw.n, err
	}
	aw.file(metaFile, 0, meta)
	if version >= 2 {
		streams, _, err := readDirStreams(dir, shards)
		if err != nil {
			return cw.n, err
		}
		var buf []byte
		for i, st := range streams {
			var wal bytes.Buffer
			for _, fr := range st.frames {
				if buf, err = appendFrame(buf, fr.payload); err != nil {
					return cw.n, err
				}
				wal.Write(buf)
			}
			seq := st.end()
			if st.snap != nil {
				aw.file(shardSnapName(i), seq, st.snap)
			}
			if wal.Len() > 0 {
				aw.file(shardWALName(i), seq, wal.Bytes())
			}
			if aw.err != nil {
				break
			}
		}
		return cw.n, aw.finish()
	}
	for i := 0; i < shards; i++ {
		var snap, wal []byte
		for _, p := range []struct {
			name string
			dst  *[]byte
		}{{shardSnapName(i), &snap}, {shardWALName(i), &wal}} {
			content, err := os.ReadFile(filepath.Join(dir, p.name))
			if errors.Is(err, os.ErrNotExist) {
				continue // a never-compacted shard has no snapshot yet
			}
			if err != nil {
				return cw.n, fmt.Errorf("anonymizer: backup read: %w", err)
			}
			*p.dst = content
		}
		seq, err := shardStreamEnd(snap, wal)
		if err != nil {
			return cw.n, fmt.Errorf("anonymizer: backup shard %d: %w", i, err)
		}
		if snap != nil {
			aw.file(shardSnapName(i), seq, snap)
		}
		if wal != nil {
			aw.file(shardWALName(i), seq, wal)
		}
		if aw.err != nil {
			break
		}
	}
	return cw.n, aw.finish()
}

// dirFrame is one post-snapshot record of a closed directory's shard
// stream: its offset and payload bytes.
type dirFrame struct {
	seq     uint64
	payload []byte
}

// dirShardStream is one shard's logical stream as read from a closed
// version-2 directory: the snapshot image plus the unified-log records
// after it.
type dirShardStream struct {
	snap    []byte
	snapSeq uint64
	frames  []dirFrame
}

// end returns the stream position the shard reaches.
func (st *dirShardStream) end() uint64 {
	if n := len(st.frames); n > 0 {
		return st.frames[n-1].seq
	}
	return st.snapSeq
}

// readDirStreams demultiplexes a closed version-2 directory into its
// per-shard logical streams, for the offline tools (cold backup,
// incremental backup, reshard) that consume shard streams without opening
// a live store. It also returns the torn tail bytes skipped. The damage
// rules match recovery read-only: a torn tail is tolerated only in the
// last non-empty segment; damage anywhere else is corruption.
func readDirStreams(dir string, shards int) ([]dirShardStream, int64, error) {
	out := make([]dirShardStream, shards)
	for i := range out {
		snap, err := os.ReadFile(filepath.Join(dir, shardSnapName(i)))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, 0, fmt.Errorf("anonymizer: reading snapshot: %w", err)
		}
		out[i].snap = snap
		if _, err := readRecords(bytes.NewReader(snap), func(rec *walRecord) error {
			if rec.Type == recSnapHeader {
				out[i].snapSeq = rec.StreamSeq
			}
			return nil
		}); err != nil {
			if errors.Is(err, errTornTail) {
				err = fmt.Errorf("%w: truncated snapshot %s", ErrCorruptLog, shardSnapName(i))
			}
			return nil, 0, err
		}
	}
	names, _, err := listSegments(dir)
	if err != nil {
		return nil, 0, err
	}
	raws := make([][]byte, len(names))
	lastData := -1
	for i, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, 0, fmt.Errorf("anonymizer: reading log segment: %w", err)
		}
		raws[i] = raw
		if len(raw) > 0 {
			lastData = i
		}
	}
	mask := uint32(shards - 1)
	runs := make([]uint64, shards)
	for i := range out {
		runs[i] = out[i].snapSeq
	}
	var truncated int64
	for i, raw := range raws {
		intact, rerr := readFrames(bytes.NewReader(raw), func(payload []byte) error {
			var rec walRecord
			if jerr := json.Unmarshal(payload, &rec); jerr != nil {
				return fmt.Errorf("%w: %v", ErrCorruptLog, jerr)
			}
			if rec.Type == recSnapHeader {
				return fmt.Errorf("%w: unexpected %q record in log", ErrCorruptLog, rec.Type)
			}
			shard := int(shardIndex(rec.ID, mask))
			seq := nextStreamSeq(runs[shard], rec.Seq)
			runs[shard] = seq
			if seq <= out[shard].snapSeq {
				return nil // folded into the snapshot already
			}
			out[shard].frames = append(out[shard].frames,
				dirFrame{seq: seq, payload: append([]byte(nil), payload...)})
			return nil
		})
		if rerr != nil && !errors.Is(rerr, errTornTail) {
			return nil, 0, fmt.Errorf("anonymizer: scanning %s: %w", names[i], rerr)
		}
		if errors.Is(rerr, errTornTail) || intact < int64(len(raw)) {
			if i != lastData {
				return nil, 0, fmt.Errorf("%w: damaged non-final log segment %s", ErrCorruptLog, names[i])
			}
			truncated += int64(len(raw)) - intact
		}
	}
	return out, truncated, nil
}

// shardStreamEnd derives a shard's stream position from its raw snapshot
// and WAL bytes: the snapshot header's StreamSeq plus the WAL records
// after it, numbered exactly the way recovery numbers them. A torn WAL
// tail is tolerated (the intact prefix determines the position).
func shardStreamEnd(snap, wal []byte) (uint64, error) {
	var seq uint64
	if len(snap) > 0 {
		_, err := readRecords(bytes.NewReader(snap), func(rec *walRecord) error {
			if rec.Type == recSnapHeader {
				seq = rec.StreamSeq
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	if len(wal) > 0 {
		_, err := readRecords(bytes.NewReader(wal), func(rec *walRecord) error {
			seq = nextStreamSeq(seq, rec.Seq)
			return nil
		})
		if err != nil && !errors.Is(err, errTornTail) {
			return 0, err
		}
	}
	return seq, nil
}

// --- Incremental backup -------------------------------------------------
//
// An incremental backup is the stream abstraction applied to backup: the
// archive carries, per shard, only the mutation records after a
// watermark taken from an earlier (full or incremental) backup. Shipping
// one is exactly shipping the replication stream to a file — the delta
// files hold the same CRC-framed record bytes TailFrom serves to
// followers, and ApplyIncremental feeds them through the same
// IngestFrame pipeline a follower uses.

// shardDeltaName returns shard i's delta file name inside an incremental
// archive.
func shardDeltaName(i int) string { return fmt.Sprintf("shard-%04d.delta", i) }

// deltaFileName matches incremental archive entries, capturing the shard
// index.
var deltaFileName = regexp.MustCompile(`^shard-([0-9]{4,})\.delta$`)

// IncrementalStats describes what an incremental backup or apply moved.
type IncrementalStats struct {
	// Shards is the store's shard count.
	Shards int
	// Frames is the number of stream records the delta carries.
	Frames int
	// Applied is the number of records ApplyIncremental applied (frames
	// the directory already held are skipped as duplicates).
	Applied int
	// Since is the watermark the delta starts after; End is the position
	// it reaches.
	Since, End Watermark
}

// WriteIncrementalBackup streams the store's mutation records after
// since — the watermark of an earlier backup — to w as one incremental
// archive, and returns the bytes written plus the delta's coverage. The
// store stays live and is NOT quiesced (a compaction here would fold the
// very records being shipped into a snapshot); each shard's tail is read
// under its lock via the same TailFrom path replication uses. A
// watermark older than a shard's last compaction reports ErrStreamGap:
// the records are no longer individually addressable and the caller must
// take a full backup instead.
func (s *DurableStore) WriteIncrementalBackup(w io.Writer, since Watermark) (int64, *IncrementalStats, error) {
	if err := s.needJournal("backup"); err != nil {
		return 0, nil, err
	}
	if len(since) != len(s.shards) {
		return 0, nil, fmt.Errorf("%w: watermark of %d elements for %d shards",
			ErrBadOp, len(since), len(s.shards))
	}
	stats := &IncrementalStats{Shards: len(s.shards), Since: since.Clone(), End: make(Watermark, len(s.shards))}
	cw := &countWriter{w: w}
	aw := newArchiveWriter(cw)
	aw.header(len(s.shards), s.nextID.Load(), since.Clone())
	var buf []byte
	for i := range s.shards {
		if aw.err != nil {
			break
		}
		frames, end, err := s.TailFrom(i, since[i], 0)
		if err != nil {
			return cw.n, nil, err
		}
		var delta bytes.Buffer
		for _, f := range frames {
			if buf, err = appendFrame(buf, f.Rec); err != nil {
				return cw.n, nil, err
			}
			delta.Write(buf)
		}
		stats.Frames += len(frames)
		stats.End[i] = end
		aw.file(shardDeltaName(i), end, delta.Bytes())
	}
	return cw.n, stats, aw.finish()
}

// IncrementalBackupDir is WriteIncrementalBackup for a closed data
// directory: it scans each shard's files read-only and ships the records
// after since. The directory must not be open in a live store.
func IncrementalBackupDir(w io.Writer, dir string, since Watermark) (int64, *IncrementalStats, error) {
	shards, version, err := readMeta(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil, fmt.Errorf("anonymizer: %s is not a durable data directory (no %s)", dir, metaFile)
		}
		return 0, nil, err
	}
	if len(since) != shards {
		return 0, nil, fmt.Errorf("%w: watermark of %d elements for %d shards",
			ErrBadOp, len(since), shards)
	}
	stats := &IncrementalStats{Shards: shards, Since: since.Clone(), End: make(Watermark, shards)}
	cw := &countWriter{w: w}
	aw := newArchiveWriter(cw)
	aw.header(shards, 0, since.Clone())
	var buf []byte
	if version >= 2 {
		streams, _, err := readDirStreams(dir, shards)
		if err != nil {
			return cw.n, nil, err
		}
		for i, st := range streams {
			if aw.err != nil {
				break
			}
			if since[i] < st.snapSeq {
				return cw.n, nil, fmt.Errorf("%w: shard %d offset %d, oldest streamable %d — take a full backup",
					ErrStreamGap, i, since[i], st.snapSeq)
			}
			var delta bytes.Buffer
			frames := 0
			for _, fr := range st.frames {
				if fr.seq <= since[i] {
					continue
				}
				if buf, err = appendFrame(buf, fr.payload); err != nil {
					return cw.n, nil, err
				}
				delta.Write(buf)
				frames++
			}
			stats.Frames += frames
			stats.End[i] = st.end()
			aw.file(shardDeltaName(i), stats.End[i], delta.Bytes())
		}
		return cw.n, stats, aw.finish()
	}
	for i := 0; i < shards; i++ {
		if aw.err != nil {
			break
		}
		snap, err := os.ReadFile(filepath.Join(dir, shardSnapName(i)))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return cw.n, nil, fmt.Errorf("anonymizer: incremental backup read: %w", err)
		}
		wal, err := os.ReadFile(filepath.Join(dir, shardWALName(i)))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return cw.n, nil, fmt.Errorf("anonymizer: incremental backup read: %w", err)
		}
		var snapSeq uint64
		if len(snap) > 0 {
			if _, err := readRecords(bytes.NewReader(snap), func(rec *walRecord) error {
				if rec.Type == recSnapHeader {
					snapSeq = rec.StreamSeq
				}
				return nil
			}); err != nil {
				return cw.n, nil, err
			}
		}
		if since[i] < snapSeq {
			return cw.n, nil, fmt.Errorf("%w: shard %d offset %d, oldest streamable %d — take a full backup",
				ErrStreamGap, i, since[i], snapSeq)
		}
		var delta bytes.Buffer
		seq := snapSeq
		frames := 0
		_, err = readFrames(bytes.NewReader(wal), func(payload []byte) error {
			var hdr struct {
				Seq uint64 `json:"seq"`
			}
			if jerr := json.Unmarshal(payload, &hdr); jerr != nil {
				return fmt.Errorf("%w: %v", ErrCorruptLog, jerr)
			}
			seq = nextStreamSeq(seq, hdr.Seq)
			if seq <= since[i] {
				return nil
			}
			if buf, err = appendFrame(buf, payload); err != nil {
				return err
			}
			delta.Write(buf)
			frames++
			return nil
		})
		if err != nil && !errors.Is(err, errTornTail) {
			return cw.n, nil, err
		}
		stats.Frames += frames
		stats.End[i] = seq
		aw.file(shardDeltaName(i), seq, delta.Bytes())
	}
	return cw.n, stats, aw.finish()
}

// incrementalSink feeds a delta archive into an open store.
type incrementalSink struct {
	st    *DurableStore
	since Watermark
	shard int
	buf   bytes.Buffer
	stats *IncrementalStats
}

// Header implements archiveSink.
func (a *incrementalSink) Header(shards int, _ uint64, since []uint64) error {
	if since == nil {
		return badArchive("not an incremental archive (no since watermark); use restore for full archives")
	}
	if shards != a.st.ShardCount() {
		return badArchive("archive spans %d shards, directory has %d", shards, a.st.ShardCount())
	}
	a.since = since
	a.stats.Shards = shards
	a.stats.Since = Watermark(since).Clone()
	a.stats.End = a.st.Watermark()
	return nil
}

// File implements archiveSink.
func (a *incrementalSink) File(name string, _ uint64) error {
	m := deltaFileName.FindStringSubmatch(name)
	if m == nil {
		return badArchive("%q is not an incremental-archive file", name)
	}
	idx, err := strconv.Atoi(m[1])
	if err != nil || idx >= a.st.ShardCount() {
		return badArchive("%q is outside the archive's %d shards", name, a.st.ShardCount())
	}
	a.shard = idx
	a.buf.Reset()
	return nil
}

// Data implements archiveSink.
func (a *incrementalSink) Data(chunk []byte) error {
	a.buf.Write(chunk)
	return nil
}

// CloseFile implements archiveSink: the shard's delta is complete and
// checksum-verified; ingest it through the shared stream pipeline.
func (a *incrementalSink) CloseFile() error {
	seq := a.since[a.shard]
	have := a.stats.End[a.shard]
	_, err := readFrames(bytes.NewReader(a.buf.Bytes()), func(payload []byte) error {
		var hdr struct {
			Seq uint64 `json:"seq"`
		}
		if jerr := json.Unmarshal(payload, &hdr); jerr != nil {
			return fmt.Errorf("%w: %v", ErrCorruptLog, jerr)
		}
		seq = nextStreamSeq(seq, hdr.Seq)
		a.stats.Frames++
		if seq <= have {
			return nil // the directory already holds this record
		}
		applied, err := a.st.IngestFrame(StreamFrame{
			Shard: a.shard, Seq: seq, Rec: json.RawMessage(payload),
		})
		if err != nil {
			return err
		}
		if applied {
			a.stats.Applied++
		}
		if seq > a.stats.End[a.shard] {
			a.stats.End[a.shard] = seq
		}
		return nil
	})
	if errors.Is(err, errTornTail) {
		return badArchive("torn delta for shard %d", a.shard)
	}
	return err
}

// End implements archiveSink.
func (a *incrementalSink) End(int) error { return nil }

// ApplyIncremental extends a closed data directory with an incremental
// archive: every delta record lands through the same journal+apply
// pipeline (IngestFrame) a replication follower uses, so a full restore
// plus its incrementals reproduces the source exactly. The archive's
// since watermark must not lie ahead of the directory's position (the
// stream would have a hole); records the directory already holds are
// skipped, so overlapping deltas are safe to apply in order.
//
// The store is opened as a replica for the duration of the apply: like
// a follower, the apply must be expiry-passive — a registration whose
// TTL looks elapsed NOW may be renewed by a touch record later in this
// very delta, so neither the open-time sweep nor a mid-apply compaction
// may reclaim it. The next normal (leader) open performs the sweep.
func ApplyIncremental(r io.Reader, dir string, opts ...DurabilityOption) (*IncrementalStats, error) {
	st, err := OpenDurableStore(dir,
		append(append([]DurabilityOption{}, opts...), WithReplica())...)
	if err != nil {
		return nil, err
	}
	defer func() { _ = st.Close() }()
	sink := &incrementalSink{st: st, stats: &IncrementalStats{}}
	if err := readArchive(r, sink); err != nil {
		return nil, err
	}
	have := st.Watermark()
	for i, s := range sink.since {
		if s > have[i] {
			return nil, fmt.Errorf("%w: archive starts after shard %d offset %d, directory is at %d",
				ErrStreamGap, i, s, have[i])
		}
	}
	if err := st.Sync(); err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return sink.stats, nil
}

// ArchiveWatermark reads an archive (full or incremental) just far
// enough to report the stream watermark it reaches — the position a
// later `backup -since` continues from. The whole archive is scanned and
// checksum-verified in the process.
func ArchiveWatermark(r io.Reader) (Watermark, error) {
	sink := &watermarkSink{}
	if err := readArchive(r, sink); err != nil {
		return nil, err
	}
	return sink.wm, nil
}

// watermarkSink extracts per-shard stream offsets from file records.
type watermarkSink struct {
	wm Watermark
}

func (s *watermarkSink) Header(shards int, _ uint64, _ []uint64) error {
	s.wm = make(Watermark, shards)
	return nil
}

func (s *watermarkSink) File(name string, seq uint64) error {
	for _, re := range []*regexp.Regexp{storeFileName, deltaFileName} {
		if m := re.FindStringSubmatch(name); m != nil {
			if idx, err := strconv.Atoi(m[1]); err == nil && idx < len(s.wm) && seq > s.wm[idx] {
				s.wm[idx] = seq
			}
			return nil
		}
	}
	return nil
}

func (s *watermarkSink) Data([]byte) error { return nil }
func (s *watermarkSink) CloseFile() error  { return nil }
func (s *watermarkSink) End(int) error     { return nil }

// shardWALName returns shard i's WAL file name.
func shardWALName(i int) string { return fmt.Sprintf("shard-%04d.wal", i) }

// shardSnapName returns shard i's snapshot file name.
func shardSnapName(i int) string { return fmt.Sprintf("shard-%04d.snap", i) }

// storeFileName matches the files a durable data directory may contain,
// capturing the shard index. The index is minimum-width (%04d), so counts
// beyond 9999 shards produce longer names — the pattern must accept them
// or a large store's own backup would be unrestorable.
var storeFileName = regexp.MustCompile(`^shard-([0-9]{4,})\.(wal|snap)$`)

// restoreSink materializes an archive into a staging directory.
type restoreSink struct {
	dir      string
	shards   int
	seen     map[string]bool
	cur      *os.File
	curName  string
	metaSeen bool
}

// Header implements archiveSink. Incremental archives are refused: a
// delta cannot seed a directory, only extend one (ApplyIncremental).
func (r *restoreSink) Header(shards int, _ uint64, since []uint64) error {
	if since != nil {
		return badArchive("incremental archive; apply it to an existing directory with restore -apply")
	}
	r.shards = shards
	return nil
}

// File implements archiveSink: it opens the next staged file, pinning the
// exact naming a data directory uses so an archive cannot plant strays.
// The shard index must lie inside the header's shard count: a file the
// restored store would never read is worse than a stray — it is key
// material sitting invisibly in the data dir.
func (r *restoreSink) File(name string, _ uint64) error {
	if name != metaFile {
		m := storeFileName.FindStringSubmatch(name)
		if m == nil {
			return badArchive("%q is not a durable-store file", name)
		}
		idx, err := strconv.Atoi(m[1])
		if err != nil || idx >= r.shards {
			return badArchive("%q is outside the archive's %d shards", name, r.shards)
		}
	}
	if r.seen[name] {
		return badArchive("duplicate file %q", name)
	}
	r.seen[name] = true
	f, err := os.OpenFile(filepath.Join(r.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("anonymizer: restore create: %w", err)
	}
	r.cur, r.curName = f, name
	return nil
}

// Data implements archiveSink.
func (r *restoreSink) Data(chunk []byte) error {
	if _, err := r.cur.Write(chunk); err != nil {
		return fmt.Errorf("anonymizer: restore write: %w", err)
	}
	return nil
}

// CloseFile implements archiveSink: the content is already checksum-
// verified, so all that remains is making it durable.
func (r *restoreSink) CloseFile() error {
	if r.curName == metaFile {
		r.metaSeen = true
	}
	err := r.cur.Sync()
	if cerr := r.cur.Close(); err == nil {
		err = cerr
	}
	r.cur = nil
	if err != nil {
		return fmt.Errorf("anonymizer: restore sync: %w", err)
	}
	return nil
}

// End implements archiveSink: the restored directory must be openable, so
// its META must exist and agree with the archive header.
func (r *restoreSink) End(int) error {
	if !r.metaSeen {
		return badArchive("archive carries no %s", metaFile)
	}
	shards, _, err := readMeta(r.dir)
	if err != nil {
		return badArchive("restored %s unreadable: %v", metaFile, err)
	}
	if shards != r.shards {
		return badArchive("%s shard count %d disagrees with archive header %d",
			metaFile, shards, r.shards)
	}
	return syncDir(r.dir)
}

// RestoreArchive seeds a fresh durable data directory at dir from the
// archive in r. The archive is staged into a sibling temp directory and
// verified completely — framing, per-file checksums, file naming, the end
// record — before a single rename publishes it as dir, so a truncated or
// corrupted archive fails cleanly without ever creating dir, and a crash
// mid-restore leaves only a removable staging directory. dir must not
// already exist: restoring over live state is refused, not merged.
func RestoreArchive(r io.Reader, dir string) error {
	if _, err := os.Stat(dir); err == nil {
		return fmt.Errorf("anonymizer: restore target %s already exists", dir)
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("anonymizer: restore target: %w", err)
	}
	tmp := dir + ".restore-tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("anonymizer: clearing stale staging dir: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o700); err != nil {
		return fmt.Errorf("anonymizer: restore staging dir: %w", err)
	}
	sink := &restoreSink{dir: tmp, seen: make(map[string]bool)}
	err := readArchive(r, sink)
	if sink.cur != nil {
		_ = sink.cur.Close()
	}
	if err != nil {
		_ = os.RemoveAll(tmp)
		return err
	}
	if err := os.Rename(tmp, dir); err != nil {
		_ = os.RemoveAll(tmp)
		return fmt.Errorf("anonymizer: restore publish: %w", err)
	}
	return syncDir(filepath.Dir(dir))
}
