package synth

import (
	"fmt"

	"geosocial/internal/geo"
	"geosocial/internal/par"
	"geosocial/internal/poi"
	"geosocial/internal/rng"
	"geosocial/internal/trace"
)

// Generate produces a full synthetic dataset from the configuration,
// deterministically given the stream. Users are generated on
// cfg.Parallelism workers; the output is byte-identical for any worker
// count because every user consumes only a pre-split child stream (split
// serially, in ID order, so the parent stream advances exactly as the
// serial path would) and lands in an index-addressed slot.
func Generate(cfg Config, s *rng.Stream) (*trace.Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	db, err := poi.GenerateCity(cfg.City, s.Split("city"))
	if err != nil {
		return nil, fmt.Errorf("synth: generate city: %w", err)
	}
	ds := &trace.Dataset{Name: cfg.Name, POIs: db.All()}
	streams := make([]*rng.Stream, cfg.Users)
	for id := 0; id < cfg.Users; id++ {
		streams[id] = s.Split(fmt.Sprintf("user-%d", id))
	}
	users, err := par.Map(cfg.Parallelism, cfg.Users, func(id int) (*trace.User, error) {
		u, err := generateUser(&cfg, db, id, streams[id])
		if err != nil {
			return nil, fmt.Errorf("synth: user %d: %w", id, err)
		}
		return u, nil
	})
	if err != nil {
		return nil, err
	}
	ds.Users = users
	return ds, nil
}

// generateUser simulates one participant over her measurement window.
func generateUser(cfg *Config, db *poi.DB, id int, s *rng.Stream) (*trace.User, error) {
	tr := sampleTraits(cfg.Incentive, s.Split("traits"))
	anch := pickAnchors(db, s.Split("anchors"))

	days := int(s.Norm(cfg.MeanDays, cfg.DaysJitter) + 0.5)
	if days < cfg.MinDays {
		days = cfg.MinDays
	}
	if days > cfg.MaxDays {
		days = cfg.MaxDays
	}
	startDay := cfg.Start.Unix() + 86400*int64(s.Intn(cfg.StaggerDays+1))

	// Fixes fall inside each day's tracking window, one per GPS period
	// at most, so the trace is sized once instead of grown by doubling.
	period := max(int64(cfg.GPSPeriod.Seconds()), 1)
	perDay := int64(cfg.TrackEndHour-cfg.TrackStartHour)*3600/period + 1
	u := &trace.User{ID: id, Days: float64(days), GPS: make(trace.GPSTrace, 0, int64(days)*perDay)}
	em := &emitter{cfg: cfg, db: db, tr: tr, user: u}

	for d := 0; d < days; d++ {
		dayStart := startDay + 86400*int64(d)
		// The study epoch (Jan 14 2013) is a Monday; weekday cycling is
		// therefore exact modulo 7.
		dow := ((dayStart / 86400) + 4) % 7 // 1970-01-01 was a Thursday
		weekend := dow == 0 || dow == 6
		events := planDay(cfg, db, anch, tr, dayStart, weekend, s.Split(fmt.Sprintf("plan-%d", d)))
		if len(events) == 0 {
			continue
		}
		ds := s.Split(fmt.Sprintf("day-%d", d))
		em.emitGPS(events, ds.Split("gps"))
		em.emitCheckins(events, ds.Split("checkins"))
		em.emitRemoteSessions(events, ds.Split("remote"))
	}

	u.GPS.Sort()
	u.Checkins.Sort()
	u.Profile = tr.profile(s.Split("profile"))
	if u.Days > 0 {
		u.Profile.CheckinsPerDay = float64(len(u.Checkins)) / u.Days
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return u, nil
}

// emitter accumulates one user's traces.
type emitter struct {
	cfg  *Config
	db   *poi.DB
	tr   traits
	user *trace.User
	// popCum is the cumulative POI popularity used to sample remote
	// checkin targets: badge hunters claim visits to the hot venues, not
	// to uniformly random ones.
	popCum []float64
}

// popPick samples a POI index with probability proportional to
// popularity.
func (em *emitter) popPick(s *rng.Stream) int {
	if em.popCum == nil {
		em.popCum = make([]float64, em.db.Len())
		acc := 0.0
		for i, p := range em.db.All() {
			acc += p.Popularity
			em.popCum[i] = acc
		}
	}
	u := s.Float64() * em.popCum[len(em.popCum)-1]
	lo, hi := 0, len(em.popCum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if em.popCum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// emitGPS samples per-minute fixes over the day's timeline, with fix
// noise, random fix loss and extended signal-gap windows.
func (em *emitter) emitGPS(events []schedEvent, s *rng.Stream) {
	cfg := em.cfg
	period := int64(cfg.GPSPeriod.Seconds())
	dayStart := events[0].start
	dayEnd := events[len(events)-1].end

	// Extended outages (phone off, dead zones).
	type window struct{ from, to int64 }
	var gaps []window
	for i, n := 0, s.Poisson(cfg.GapsPerDay); i < n; i++ {
		g0 := dayStart + s.Int63n(maxI64(dayEnd-dayStart, 1))
		gaps = append(gaps, window{g0, g0 + int64(s.Range(600, 2400))})
	}
	inGap := func(t int64) bool {
		for _, g := range gaps {
			if t >= g.from && t < g.to {
				return true
			}
		}
		return false
	}

	// Per-stay indoor anchor offsets persist across the stay, mimicking a
	// WiFi-positioned location estimate.
	idx := 0
	var indoorOff [2]float64
	indoorFor := -1
	for t := alignUp(dayStart, period); t < dayEnd; t += period {
		for idx < len(events) && events[idx].end <= t {
			idx++
		}
		if idx >= len(events) {
			break
		}
		ev := events[idx]
		if t < ev.start {
			continue
		}
		if inGap(t) || s.Bool(cfg.GPSDropProb) {
			continue
		}
		var p trace.GPSPoint
		p.T = t
		switch ev.kind {
		case evStay:
			if ev.indoor {
				if indoorFor != idx {
					indoorFor = idx
					indoorOff[0] = s.Norm(0, 10)
					indoorOff[1] = s.Norm(0, 10)
				}
				base := geo.Destination(ev.loc, 0, indoorOff[0])
				base = geo.Destination(base, 90, indoorOff[1])
				p.Loc = jitter(base, 3, s)
				p.Indoor = true
			} else {
				p.Loc = jitter(ev.loc, cfg.GPSNoiseM, s)
			}
		case evMove:
			f := float64(t-ev.start) / float64(ev.dur())
			p.Loc = jitter(geo.Interpolate(ev.from, ev.to, f), cfg.GPSNoiseM*1.5, s)
		}
		em.user.GPS = append(em.user.GPS, p)
	}
}

// emitCheckins walks the day's timeline and emits honest, superfluous,
// driveby and short-stop checkins according to the incentive model.
func (em *emitter) emitCheckins(events []schedEvent, s *rng.Stream) {
	cfg := em.cfg
	tr := em.tr
	for _, ev := range events {
		switch {
		case ev.kind == evStay && ev.micro:
			// Short stop below the visit threshold: a checkin here is
			// physically truthful but will never match a visit — the
			// §5.1 "no distinctive features" residue.
			if s.Bool(cfg.Incentive.MicroStopCheckinProb * min1(tr.diligence)) {
				em.checkinAt(ev.poiID, ev.start+s.Int63n(maxI64(ev.dur(), 1)), trace.LabelOther)
			}

		case ev.kind == evStay:
			p := tr.diligence * checkinAffinity[ev.cat]
			if p > 0.9 {
				p = 0.9
			}
			if !s.Bool(p) {
				continue
			}
			maxOff := ev.dur() - 30
			if maxOff > 1500 {
				maxOff = 1500
			}
			if maxOff < 60 {
				maxOff = maxI64(ev.dur()/2, 1)
			}
			tHonest := ev.start + 60 + s.Int63n(maxOff)
			if tHonest >= ev.end {
				tHonest = ev.start + ev.dur()/2
			}
			em.checkinAt(ev.poiID, tHonest, trace.LabelHonest)

			// Superfluous burst: mayorship seekers also check in at
			// venues adjacent to the one they are actually visiting.
			if cfg.Incentive.RewardSeeking {
				pSuper := tr.mayorSeek * 1.05 * cfg.Incentive.SuperfluousProb
				if pSuper > 0.75 {
					pSuper = 0.75
				}
				if s.Bool(pSuper) {
					em.superfluousBurst(ev, tHonest, s)
				}
			}

		case ev.kind == evMove && ev.drive && cfg.Incentive.RewardSeeking:
			pDrive := tr.driveby * 0.68 * cfg.Incentive.DrivebyProb
			if !s.Bool(pDrive) {
				continue
			}
			// Heavy on-the-go users fire off several checkins in one
			// drive; everyone else at most one.
			burst := 1
			if tr.driveby > 0.45 {
				burst += s.Poisson(2.0 * tr.driveby)
			}
			emitted := 0
			// Routes cross empty space between POI clusters, so probe
			// several points along the leg for venues to claim.
			for try := 0; try < 4+2*burst && emitted < burst; try++ {
				f := s.Range(0.15, 0.85)
				tAt := ev.start + int64(f*float64(ev.dur()))
				at := geo.Interpolate(ev.from, ev.to, f)
				ids := em.db.Within(at, 460, nil)
				if len(ids) == 0 {
					continue
				}
				em.checkinAt(ids[s.Intn(len(ids))], tAt, trace.LabelDriveby)
				emitted++
			}
		}
	}
}

// superfluousBurst emits 1–3 checkins at venues near the visited POI,
// seconds to minutes after the honest checkin.
func (em *emitter) superfluousBurst(ev schedEvent, tHonest int64, s *rng.Stream) {
	ids := em.db.Within(ev.loc, 350, nil)
	var cands []int
	for _, id := range ids {
		if id != ev.poiID {
			cands = append(cands, id)
		}
	}
	if len(cands) == 0 {
		return
	}
	s.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	n := 1 + s.Intn(3)
	if n > len(cands) {
		n = len(cands)
	}
	t := tHonest
	for i := 0; i < n; i++ {
		t += int64(s.Range(15, 160))
		em.checkinAt(cands[i], t, trace.LabelSuperfluous)
	}
}

// emitRemoteSessions emits badge-hunting checkin sprees at far-away POIs:
// the user never moves, but rapid-fire checkins appear at venues across
// town (the burstiness signal of Figure 6).
func (em *emitter) emitRemoteSessions(events []schedEvent, s *rng.Stream) {
	cfg := em.cfg
	if !cfg.Incentive.RewardSeeking {
		return
	}
	tr := em.tr
	lambda := tr.badgeHunt * tr.remoteIdio * cfg.Incentive.RemoteRate * (0.7 + 1.2*tr.activity)
	nSessions := s.Poisson(lambda)
	if nSessions == 0 {
		return
	}
	dayStart := events[0].start
	dayEnd := events[len(events)-1].end
	for k := 0; k < nSessions; k++ {
		t0 := dayStart + s.Int63n(maxI64(dayEnd-dayStart-1200, 1))
		here := positionAt(events, t0)
		n := 1 + s.Poisson(1.4)
		if n > 6 {
			n = 6
		}
		t := t0
		emitted := 0
		for tries := 0; tries < 40 && emitted < n; tries++ {
			id := em.popPick(s)
			p, err := em.db.Get(id)
			if err != nil {
				continue
			}
			if geo.Distance(here, p.Loc) < 700 {
				continue
			}
			em.checkinAt(id, t, trace.LabelRemote)
			t += int64(s.Range(15, 90))
			emitted++
		}
	}
}

// checkinAt appends one checkin for the claimed POI.
func (em *emitter) checkinAt(poiID int, t int64, label trace.Label) {
	p, err := em.db.Get(poiID)
	if err != nil {
		return
	}
	em.user.Checkins = append(em.user.Checkins, trace.Checkin{
		T:        t,
		POIID:    p.ID,
		POIName:  p.Name,
		Category: p.Category,
		Loc:      p.Loc,
		Truth:    label,
	})
}

// positionAt returns the user's physical location at time t according to
// the day's timeline (clamping to the nearest event when t falls outside).
func positionAt(events []schedEvent, t int64) geo.LatLon {
	for _, ev := range events {
		if t >= ev.start && t < ev.end {
			if ev.kind == evStay {
				return ev.loc
			}
			f := float64(t-ev.start) / float64(ev.dur())
			return geo.Interpolate(ev.from, ev.to, f)
		}
	}
	last := events[len(events)-1]
	if t >= last.end {
		if last.kind == evStay {
			return last.loc
		}
		return last.to
	}
	first := events[0]
	if first.kind == evStay {
		return first.loc
	}
	return first.from
}

// jitter displaces p by independent N(0, sigma) meters east and north.
func jitter(p geo.LatLon, sigma float64, s *rng.Stream) geo.LatLon {
	q := geo.Destination(p, 0, s.Norm(0, sigma))
	return geo.Destination(q, 90, s.Norm(0, sigma))
}

func alignUp(t, period int64) int64 {
	if r := t % period; r != 0 {
		return t + period - r
	}
	return t
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min1(x float64) float64 {
	if x > 1 {
		return 1
	}
	return x
}
