package outcome

import (
	"fmt"
	"io"

	"geosocial/internal/classify"
)

// Append rewrites the log at src into dst with the given records folded
// in: a source record whose user also appears in updates is superseded
// (dropped in favour of the update), every other source record is
// carried over unchanged, and updates for users absent from the source
// are appended as new users. The destination is built through the
// ordinary Writer, so it is compacted to canonical form — records
// strictly increasing by user ID, one record per user, no tombstones —
// and its bytes are exactly what a cold validation of the updated
// corpus writes, because carried-over records are byte-for-byte the
// same deterministic encodings and the Writer re-sequences everything
// at Close.
//
// Carrying a record costs a walk, not a decode: every source record is
// checked as Reader.Next checks it, and one whose payload is canonical
// (as every Writer writes it) is copied verbatim. Any other payload is
// decoded and re-encoded, so the output is the same for every input.
//
// observe, which may be nil, sees every source record in log order
// together with whether it was superseded — the hook the incremental
// updater uses to subtract superseded contributions (and keep truth
// counts) in the same single pass that compacts the log. The record it
// sees holds only what that accounting reads: the scalar fields and
// the Times, Kinds and Truth columns; Features, the flight blocks and
// Pauses are nil. It is reused for the next record, so observe must not
// retain it. src and dst may name the same file: the source is fully
// read before the Writer publishes over it.
func Append(src, dst string, updates []*Record, observe func(old *Record, superseded bool) error) error {
	superseding := make(map[int]bool, len(updates))
	for _, rec := range updates {
		if superseding[rec.UserID] {
			return fmt.Errorf("outcome: append: duplicate update for user %d", rec.UserID)
		}
		superseding[rec.UserID] = true
	}

	lf, err := Open(src)
	if err != nil {
		return err
	}
	defer lf.Close()

	w, err := Create(dst, lf.Name())
	if err != nil {
		return err
	}
	defer w.Discard()

	if err := walk(lf, func(rec *Record, payload []byte, canonical bool) error {
		superseded := superseding[rec.UserID]
		if observe != nil {
			if err := observe(rec, superseded); err != nil {
				return err
			}
		}
		switch {
		case superseded:
			return nil
		case !canonical:
			full, err := decodeRecord(payload, lf.kindCount)
			if err != nil {
				return err
			}
			return w.Write(full)
		case lf.kindCount > classify.NumKinds:
			// Write would check the kinds against this build's count.
			if err := rec.check(classify.NumKinds); err != nil {
				return err
			}
		}
		return w.writeRaw(rec.UserID, payload)
	}); err != nil {
		return err
	}
	for _, rec := range updates {
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return w.Close()
}

// Walk streams every record of the log at path through fn, in
// canonical user-ID order, as Append's observe sees it: checked as
// Reader.Next checks it, but with only the scalar fields and the Times,
// Kinds and Truth columns filled, in a record reused between calls.
func Walk(path string, fn func(*Record) error) error {
	lf, err := Open(path)
	if err != nil {
		return err
	}
	defer lf.Close()
	return walk(lf, func(rec *Record, _ []byte, _ bool) error { return fn(rec) })
}

// walk reads every record of lf with walkRecord, passing fn the record,
// its payload (valid for the call) and whether the payload is
// canonical.
func walk(lf *LogFile, fn func(rec *Record, payload []byte, canonical bool) error) error {
	var rec Record
	var at floatCols
	for {
		buf, err := lf.payload()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		canonical, err := walkRecord(buf, lf.kindCount, &rec, &at)
		if err != nil {
			return err
		}
		if err := lf.admit(rec.UserID); err != nil {
			return err
		}
		if err := fn(&rec, buf, canonical); err != nil {
			return err
		}
	}
}
