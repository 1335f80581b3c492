package log

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"

	"github.com/trap-repro/trap/internal/trace"
)

func TestLevelsAndFormats(t *testing.T) {
	var b bytes.Buffer
	l := New(&b, slog.LevelWarn, FormatText)
	ctx := context.Background()
	l.Debug(ctx, "nope")
	l.Info(ctx, "nope either")
	l.Warn(ctx, "kept")
	l.Error(ctx, "also kept", "k", 1)
	out := b.String()
	if strings.Contains(out, "nope") {
		t.Fatalf("level filter leaked: %s", out)
	}
	if !strings.Contains(out, "msg=kept") || !strings.Contains(out, "k=1") {
		t.Fatalf("missing records: %s", out)
	}
}

func TestJSONFormatWithJobAndTrace(t *testing.T) {
	var b bytes.Buffer
	l := New(&b, slog.LevelInfo, FormatJSON)
	tr := trace.New(trace.Options{})
	ctx := WithJob(context.Background(), "job-7")
	ctx, sp := tr.Start(ctx, "op")
	l.Info(ctx, "hello", "n", 3)
	sp.End()

	var rec map[string]any
	if err := json.Unmarshal(b.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v: %s", err, b.String())
	}
	if rec["msg"] != "hello" || rec["job"] != "job-7" {
		t.Fatalf("record: %v", rec)
	}
	if rec["trace"] != sp.TraceID() {
		t.Fatalf("trace attr %v, want %s", rec["trace"], sp.TraceID())
	}
	if rec["span"] == nil || rec["n"] != float64(3) {
		t.Fatalf("record: %v", rec)
	}
}

func TestTextOmitsIDsWithoutContext(t *testing.T) {
	var b bytes.Buffer
	l := New(&b, slog.LevelInfo, FormatText)
	l.Info(context.Background(), "plain")
	out := b.String()
	if strings.Contains(out, "job=") || strings.Contains(out, "trace=") {
		t.Fatalf("unexpected IDs on bare context: %s", out)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "ERROR": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("expected error for unknown level")
	}
}
