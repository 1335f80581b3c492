// Package log is trapd's structured, leveled logger: a thin layer over
// log/slog whose handler stamps every record with the request context's
// job ID and trace/span IDs (see internal/trace), so a log line from
// deep inside a worker pool is attributable to the exact job and trace
// that produced it.
//
//	logger := log.New(os.Stderr, slog.LevelInfo, log.FormatText)
//	ctx = log.WithJob(ctx, "job-42")
//	logger.Info(ctx, "suite built", "dataset", "tpch", "ms", 412)
//	// time=... level=INFO msg="suite built" dataset=tpch ms=412 job=job-42
//
// With an active trace on ctx the line additionally carries
// trace=<16-hex id> and span=<id>.
package log

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"

	"github.com/trap-repro/trap/internal/trace"
)

// Output formats accepted by New.
const (
	FormatText = "text"
	FormatJSON = "json"
)

// ParseLevel maps a flag string (debug, info, warn, error) to a level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// Logger is a leveled, context-aware structured logger.
type Logger struct {
	sl *slog.Logger
}

// New builds a logger writing to w at the given level, in FormatText or
// FormatJSON (unknown formats fall back to text).
func New(w io.Writer, level slog.Level, format string) *Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if format == FormatJSON {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return &Logger{sl: slog.New(&ctxHandler{inner: h})}
}

// Debug logs at debug level; args are alternating key/value pairs.
func (l *Logger) Debug(ctx context.Context, msg string, args ...any) {
	l.sl.DebugContext(ctx, msg, args...)
}

// Info logs at info level.
func (l *Logger) Info(ctx context.Context, msg string, args ...any) {
	l.sl.InfoContext(ctx, msg, args...)
}

// Warn logs at warn level.
func (l *Logger) Warn(ctx context.Context, msg string, args ...any) {
	l.sl.WarnContext(ctx, msg, args...)
}

// Error logs at error level.
func (l *Logger) Error(ctx context.Context, msg string, args ...any) {
	l.sl.ErrorContext(ctx, msg, args...)
}

type jobKey struct{}

// WithJob stamps a job ID on the context; every record logged under it
// carries job=<id>.
func WithJob(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, jobKey{}, id)
}

// JobID returns the context's job ID ("" when unset).
func JobID(ctx context.Context) string {
	id, _ := ctx.Value(jobKey{}).(string)
	return id
}

// ctxHandler decorates records with the context's job and trace/span
// IDs before delegating to the configured output handler.
type ctxHandler struct {
	inner slog.Handler
}

func (h *ctxHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

func (h *ctxHandler) Handle(ctx context.Context, r slog.Record) error {
	if id := JobID(ctx); id != "" {
		r.AddAttrs(slog.String("job", id))
	}
	if sp := trace.FromContext(ctx); sp != nil {
		r.AddAttrs(slog.String("trace", sp.TraceID()),
			slog.Uint64("span", sp.SpanID()))
	}
	return h.inner.Handle(ctx, r)
}

func (h *ctxHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &ctxHandler{inner: h.inner.WithAttrs(attrs)}
}

func (h *ctxHandler) WithGroup(name string) slog.Handler {
	return &ctxHandler{inner: h.inner.WithGroup(name)}
}
