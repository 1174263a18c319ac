// Package obs is the pipeline-wide observability layer: a leveled
// structured logger, a lock-cheap span collector for per-stage /
// per-shard wall-time accounting, and a metrics registry (counters,
// gauges, fixed-bucket histograms) rendered in Prometheus exposition
// format.
//
// The package has no dependencies outside the standard library and no
// dependencies on the rest of this module, so any layer — trace, core,
// serve, the cmd tools — can use it without import cycles.
//
// Everything is nil-safe and zero-cost when disabled: a nil *Logger
// drops every call after one pointer check, a nil *Collector hands out
// nil *Cells whose Observe is a no-op, and the instrumented code paths
// are written so that when observability is off no clock is read and no
// allocation happens. That discipline is what lets instrumentation live
// inside the validation hot path without perturbing the byte-identity
// or performance contracts (see docs/OBSERVABILITY.md).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level orders log severities. The zero value is LevelInfo, so a
// zero-configured logger behaves like the pre-structured stderr output.
type Level int8

// Log levels, least to most severe. LevelOff is above every level and
// silences the logger entirely.
const (
	LevelDebug Level = iota - 1
	LevelInfo
	LevelWarn
	LevelError
	LevelOff
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	case LevelOff:
		return "off"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// ParseLevel maps a -log-level flag value to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "", "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off", "none", "quiet":
		return LevelOff, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, error, or off)", s)
}

// LogFormat selects the logger's wire format.
type LogFormat int8

// Logger output formats: key=value text (the default) or one JSON
// object per line.
const (
	FormatText LogFormat = iota
	FormatJSON
)

// ParseLogFormat maps a -log-format flag value to a LogFormat.
func ParseLogFormat(s string) (LogFormat, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "text":
		return FormatText, nil
	case "json":
		return FormatJSON, nil
	}
	return FormatText, fmt.Errorf("obs: unknown log format %q (want text or json)", s)
}

// Logger is a leveled, structured logger. Construct with NewLogger; a
// nil *Logger is valid and drops everything, which is how callers
// disable logging without branching at every call site.
//
// Lines carry a timestamp, the level, the component name, the message,
// and any key=value fields, in the configured format. Writes are
// serialized by an internal mutex, so one Logger may be shared across
// goroutines (the validation worker pool, HTTP handlers, the spool
// watcher).
type Logger struct {
	mu        sync.Mutex
	w         io.Writer
	level     Level
	format    LogFormat
	component string
	// now is the clock, swappable in tests for deterministic output.
	now func() time.Time
}

// NewLogger builds a Logger writing to w. Component names the emitting
// binary or subsystem and appears on every line; lines below level are
// dropped before any formatting work.
func NewLogger(w io.Writer, level Level, format LogFormat, component string) *Logger {
	return &Logger{w: w, level: level, format: format, component: component, now: time.Now}
}

// Enabled reports whether lines at lv would be emitted. Call sites with
// expensive field construction should gate on it.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && lv >= l.level && l.level < LevelOff
}

// Log emits one line at lv: a message plus alternating key, value
// pairs (values are rendered with %v; a trailing key without a value
// gets "(missing)"). No-op on a nil logger or a suppressed level.
func (l *Logger) Log(lv Level, msg string, keyvals ...any) {
	if !l.Enabled(lv) {
		return
	}
	l.emit(lv, msg, keyvals)
}

// Debugf and Errorf format a message at the respective level with no
// structured fields beyond the standard ones.
func (l *Logger) Debugf(format string, args ...any) { l.logf(LevelDebug, format, args) }

// Errorf logs a formatted message at LevelError.
func (l *Logger) Errorf(format string, args ...any) { l.logf(LevelError, format, args) }

// Printf logs a formatted message at LevelInfo — the level of the
// pipeline's and the service's progress lines.
func (l *Logger) Printf(format string, args ...any) { l.logf(LevelInfo, format, args) }

func (l *Logger) logf(lv Level, format string, args []any) {
	if !l.Enabled(lv) {
		return
	}
	l.emit(lv, fmt.Sprintf(format, args...), nil)
}

// emit renders and writes one line. Rendering happens outside the
// mutex; only the write is serialized.
func (l *Logger) emit(lv Level, msg string, keyvals []any) {
	ts := l.now().UTC().Format(time.RFC3339Nano)
	var line []byte
	switch l.format {
	case FormatJSON:
		obj := make(map[string]any, 4+len(keyvals)/2)
		obj["ts"] = ts
		obj["level"] = lv.String()
		if l.component != "" {
			obj["component"] = l.component
		}
		obj["msg"] = msg
		for i := 0; i+1 < len(keyvals); i += 2 {
			obj[fmt.Sprint(keyvals[i])] = jsonValue(keyvals[i+1])
		}
		if len(keyvals)%2 == 1 {
			obj[fmt.Sprint(keyvals[len(keyvals)-1])] = "(missing)"
		}
		// A map marshals with sorted keys, so JSON lines are
		// deterministic for equal inputs.
		b, err := json.Marshal(obj)
		if err != nil { // unmarshalable field value; degrade, never drop
			b, _ = json.Marshal(map[string]any{"ts": ts, "level": lv.String(), "msg": msg, "marshal_error": err.Error()})
		}
		line = append(b, '\n')
	default:
		var sb strings.Builder
		sb.Grow(64 + len(msg))
		sb.WriteString("ts=")
		sb.WriteString(ts)
		sb.WriteString(" level=")
		sb.WriteString(lv.String())
		if l.component != "" {
			sb.WriteString(" component=")
			sb.WriteString(textValue(l.component))
		}
		sb.WriteString(" msg=")
		sb.WriteString(textValue(msg))
		for i := 0; i+1 < len(keyvals); i += 2 {
			sb.WriteByte(' ')
			sb.WriteString(fmt.Sprint(keyvals[i]))
			sb.WriteByte('=')
			sb.WriteString(textValue(fmt.Sprint(keyvals[i+1])))
		}
		if len(keyvals)%2 == 1 {
			sb.WriteByte(' ')
			sb.WriteString(fmt.Sprint(keyvals[len(keyvals)-1]))
			sb.WriteString("=(missing)")
		}
		sb.WriteByte('\n')
		line = []byte(sb.String())
	}
	l.mu.Lock()
	l.w.Write(line) //nolint:errcheck // nothing to do about a failed log write
	l.mu.Unlock()
}

// jsonValue passes JSON-native values through and stringifies the rest
// (errors, Stringers, durations) so lines stay greppable.
func jsonValue(v any) any {
	switch x := v.(type) {
	case nil, bool, string, float64, float32,
		int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64:
		return x
	case time.Duration:
		return x.String()
	case error:
		return x.Error()
	case fmt.Stringer:
		return x.String()
	}
	return fmt.Sprint(v)
}

// textValue quotes a key=value text field when it contains whitespace,
// quotes, or control characters; plain tokens stay bare.
func textValue(s string) string {
	for _, r := range s {
		if r <= ' ' || r == '"' || r == '=' || r == 0x7f {
			return strconv.Quote(s)
		}
	}
	if s == "" {
		return `""`
	}
	return s
}
