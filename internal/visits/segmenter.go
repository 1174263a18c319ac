package visits

// Segmenter is the resumable form of Detect: stay-point segmentation as
// an online fold over the GPS stream. Feed accepts any chunking of the
// trace — whole days, single fixes — and emits every visit the batch
// algorithm would have emitted from the prefix seen so far, as soon as
// it is decidable. The only state carried between feeds is the open
// tail window (the fixes since the last finalized stay decision), so
// appending a day to a user re-examines just that tail, never the whole
// history. Finish flushes the final window exactly as the batch scan
// decides it at end of trace.
//
// Detect is implemented on top of the Segmenter, which is what makes
// chunked and batch segmentation equal by construction: a window is
// only finalized when an observed fix breaks it (roam radius or time
// gap) or the trace ends, and both paths take those decisions from the
// same scan.
//
// The open-window state round-trips through EncodeState/RestoreState —
// a self-delimiting binary blob suited to a GSF1 fragment chunk — so a
// checkpointed ingest can park a user mid-stream and resume when its
// next day arrives.

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"geosocial/internal/geo"
	"geosocial/internal/poi"
	"geosocial/internal/trace"
)

// segStateVersion is the EncodeState blob version.
const segStateVersion = 1

// maxStatePoints caps the fix count a RestoreState blob may claim, so a
// corrupt length prefix cannot trigger a huge allocation.
const maxStatePoints = 1 << 24

// Segmenter carries visit detection's open stay-point state between
// feeds. Create with NewSegmenter; not safe for concurrent use.
type Segmenter struct {
	cfg      Config
	db       *poi.DB
	roam     geo.RadiusTest   // RoamRadius, thresholds solved once
	buf      []trace.GPSPoint // open tail window: fixes not yet finalized
	lastT    int64            // time of the last fix ever fed
	have     bool             // at least one fix has been fed
	finished bool
}

// NewSegmenter validates the configuration and returns a fresh
// segmenter. The db may be nil, in which case visits are not snapped to
// POIs.
func NewSegmenter(cfg Config, db *poi.DB) (*Segmenter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Segmenter{cfg: cfg, db: db, roam: geo.NewRadiusTest(cfg.RoamRadius)}, nil
}

// Pending returns the number of fixes held in the open tail window —
// the whole state a resumed feed re-examines.
func (s *Segmenter) Pending() int { return len(s.buf) }

// Feed appends fixes to the stream and returns the visits that became
// decidable. Fixes must continue the trace in non-decreasing time
// order, across feeds as well as within one. Feed scans pts in place and
// copies only the undecided tail window; the segmenter never retains pts
// itself, so the caller may reuse it as soon as Feed returns.
func (s *Segmenter) Feed(pts []trace.GPSPoint) ([]trace.Visit, error) {
	return s.feed(pts, false)
}

// Finish flushes the open window with the batch algorithm's
// end-of-trace decision and seals the segmenter. Idempotent; a sealed
// segmenter rejects further feeds.
func (s *Segmenter) Finish() []trace.Visit {
	if s.finished {
		return nil
	}
	out, _ := s.feed(nil, true)
	return out
}

// feed is Feed, and with finish set also Finish: the end-of-trace
// decision is taken on pts directly, so a one-shot Detect copies no fix
// at all.
func (s *Segmenter) feed(pts []trace.GPSPoint, finish bool) ([]trace.Visit, error) {
	if s.finished {
		return nil, fmt.Errorf("visits: segmenter already finished")
	}
	lastT, have := s.lastT, s.have
	for _, p := range pts {
		if have && p.T < lastT {
			s.lastT, s.have = lastT, have
			return nil, fmt.Errorf("visits: GPS trace not time-ordered")
		}
		lastT, have = p.T, true
	}
	s.lastT, s.have = lastT, have
	out, k := s.drain(pts, finish)
	if finish {
		s.finished = true
		s.buf = nil
		return out, nil
	}
	// Keep the undecided tail — the fixes after the first k of
	// buf ++ pts — in the segmenter's own buffer.
	if nb := len(s.buf); k >= nb {
		s.buf = append(s.buf[:0], pts[k-nb:]...)
	} else {
		n := copy(s.buf, s.buf[k:])
		s.buf = append(s.buf[:n], pts...)
	}
	return out, nil
}

// drain runs the stay-point scan over the window buf ++ pts, emitting
// every finalized visit, and returns the number of leading fixes it
// finalized. A window is finalized when an observed next fix breaks it
// (gap or roam) — or unconditionally when finish is set, mirroring the
// batch scan running out of trace.
func (s *Segmenter) drain(pts []trace.GPSPoint, finish bool) ([]trace.Visit, int) {
	var out []trace.Visit
	buf := s.buf
	nb := len(buf)
	at := func(k int) trace.GPSPoint {
		if k < nb {
			return buf[k]
		}
		return pts[k-nb]
	}
	i := 0
	for n := nb + len(pts); i < n; {
		j, closed := s.window(pts, i)
		if !closed && !finish {
			break // open window: undecidable until more fixes arrive
		}
		first, last := at(i), at(j)
		if dur := time.Duration(last.T-first.T) * time.Second; dur < s.cfg.MinDuration {
			i++
			continue
		}
		v := trace.Visit{
			Start: first.T,
			End:   last.T,
			Loc:   centroid(buf[min(i, nb):min(j+1, nb)], pts[max(i, nb)-nb:max(j+1, nb)-nb]),
			POIID: -1,
		}
		if s.db != nil {
			if p, _, ok := s.db.NearestWithin(v.Loc, s.cfg.SnapRadius); ok {
				v.POIID = p.ID
				v.Category = p.Category
			}
		}
		out = append(out, v)
		i = j + 1
	}
	return out, i
}

// window scans the stay window anchored at fix i of s.buf ++ pts. It
// returns the index of the window's last fix, and whether an observed
// fix closed the window (rather than the input running out).
func (s *Segmenter) window(pts []trace.GPSPoint, i int) (j int, closed bool) {
	buf := s.buf
	nb := len(buf)
	var anchor trace.GPSPoint
	if i < nb {
		anchor = buf[i]
	} else {
		anchor = pts[i-nb]
	}
	roam := s.roam.Around(anchor.Loc)
	j, prevT := i, anchor.T
	if i+1 < nb {
		j += s.extend(buf[i+1:], &roam, prevT)
		if j+1 < nb {
			return j, true
		}
		prevT = buf[j].T
	}
	next := j + 1 - nb // first fix of pts not yet in the window
	m := s.extend(pts[next:], &roam, prevT)
	return j + m, next+m < len(pts)
}

// extend returns how many leading fixes of w continue a stay window
// whose latest fix is at prevT: each fix must follow its predecessor
// within MaxGap and lie within RoamRadius of the window's anchor.
func (s *Segmenter) extend(w []trace.GPSPoint, roam *geo.Disk, prevT int64) int {
	for k, p := range w {
		if time.Duration(p.T-prevT)*time.Second > s.cfg.MaxGap {
			return k
		}
		// Decision-identical to Distance(anchor, p.Loc) <= RoamRadius:
		// squared certified thresholds decide all but borderline fixes
		// without square roots or trigonometry (see geo/fastdist.go).
		if !roam.Contains(p.Loc) {
			return k
		}
		prevT = p.T
	}
	return len(w)
}

// EncodeState serializes the open-window state (not the configuration)
// as a self-delimiting blob, losslessly — coordinates keep their full
// float64 bits, so a restored segmenter continues bit-for-bit like the
// original.
func (s *Segmenter) EncodeState() []byte {
	buf := []byte{segStateVersion}
	var flags byte
	if s.have {
		flags |= 1
	}
	if s.finished {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = binary.AppendVarint(buf, s.lastT)
	buf = binary.AppendUvarint(buf, uint64(len(s.buf)))
	for _, p := range s.buf {
		buf = binary.AppendVarint(buf, p.T)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Loc.Lat))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Loc.Lon))
		if p.Indoor {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// RestoreState replaces the segmenter's open-window state with a blob
// produced by EncodeState (under the same configuration). Any decode
// inconsistency is an error and leaves the segmenter unchanged.
func (s *Segmenter) RestoreState(data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("visits: segmenter state truncated")
	}
	if data[0] != segStateVersion {
		return fmt.Errorf("visits: unsupported segmenter state version %d", data[0])
	}
	flags := data[1]
	if flags > 3 {
		return fmt.Errorf("visits: bad segmenter state flags %#x", flags)
	}
	pos := 2
	lastT, n := binary.Varint(data[pos:])
	if n <= 0 {
		return fmt.Errorf("visits: bad segmenter state time")
	}
	pos += n
	count, n := binary.Uvarint(data[pos:])
	if n <= 0 || count > maxStatePoints {
		return fmt.Errorf("visits: bad segmenter state fix count")
	}
	pos += n
	buf := make([]trace.GPSPoint, 0, count)
	prevT := int64(math.MinInt64)
	for i := uint64(0); i < count; i++ {
		t, n := binary.Varint(data[pos:])
		if n <= 0 {
			return fmt.Errorf("visits: bad segmenter state fix %d", i)
		}
		pos += n
		if pos+17 > len(data) {
			return fmt.Errorf("visits: segmenter state truncated at fix %d", i)
		}
		p := trace.GPSPoint{
			T: t,
			Loc: geo.LatLon{
				Lat: math.Float64frombits(binary.LittleEndian.Uint64(data[pos:])),
				Lon: math.Float64frombits(binary.LittleEndian.Uint64(data[pos+8:])),
			},
			Indoor: data[pos+16] != 0,
		}
		pos += 17
		if p.T < prevT {
			return fmt.Errorf("visits: segmenter state fixes out of order")
		}
		prevT = p.T
		buf = append(buf, p)
	}
	if pos != len(data) {
		return fmt.Errorf("visits: %d trailing bytes in segmenter state", len(data)-pos)
	}
	if count > 0 && (flags&1 == 0 || buf[count-1].T > lastT) {
		return fmt.Errorf("visits: inconsistent segmenter state")
	}
	s.buf = buf
	s.lastT = lastT
	s.have = flags&1 != 0
	s.finished = flags&2 != 0
	return nil
}
