package obs

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunToolOff: with neither a report nor a debug server, body sees nil
// instruments, SetExtra does nothing and nothing is printed.
func TestRunToolOff(t *testing.T) {
	var w bytes.Buffer
	ran := false
	err := RunTool(&w, "tool", nil, "", "", func(r *ToolRun) error {
		ran = true
		if r.Metrics != nil || r.Trace != nil {
			t.Errorf("instruments on without a consumer: %v %v", r.Metrics, r.Trace)
		}
		r.SetExtra("k", 1)
		r.Metrics.Counter("c").Inc()
		r.Trace.Start("s").End()
		return nil
	})
	if err != nil || !ran || w.Len() != 0 {
		t.Fatalf("err %v, ran %v, output %q", err, ran, w.String())
	}
}

// TestRunToolReport: the report carries the tool, args, the body's
// metrics, spans and extras, and its path is printed last.
func TestRunToolReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	var w bytes.Buffer
	err := RunTool(&w, "tool", []string{"-x"}, path, "", func(r *ToolRun) error {
		r.Metrics.Counter("work.items").Add(3)
		r.Trace.Start("phase").End()
		r.SetExtra("best", 7)
		w.WriteString("result\n")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "result\nreport written to " + path + "\n"; w.String() != want {
		t.Errorf("output %q, want %q", w.String(), want)
	}
	rep, err := ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "tool" || len(rep.Args) != 1 || rep.Args[0] != "-x" {
		t.Errorf("tool %q args %v", rep.Tool, rep.Args)
	}
	if rep.Counters["work.items"] != 3 {
		t.Errorf("counters %v", rep.Counters)
	}
	if len(rep.Spans) != 1 || rep.Spans[0].Name != "phase" {
		t.Errorf("spans %+v", rep.Spans)
	}
	if rep.Extra["best"] != float64(7) {
		t.Errorf("extra %v", rep.Extra)
	}
	if rep.WallNanos <= 0 {
		t.Errorf("wall time %d", rep.WallNanos)
	}
}

// TestRunToolBodyError: a failing body's error comes back unchanged and no
// report is written.
func TestRunToolBodyError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	boom := errors.New("boom")
	var w bytes.Buffer
	err := RunTool(&w, "tool", nil, path, "", func(*ToolRun) error { return boom })
	if err != boom {
		t.Fatalf("err %v, want %v", err, boom)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("report written after a failed run: %v", err)
	}
	if w.Len() != 0 {
		t.Errorf("output %q", w.String())
	}
}

// TestRunToolDebugServer: the debug server serves the run's registry while
// body runs, its address is printed first, and it is closed on return.
func TestRunToolDebugServer(t *testing.T) {
	var w bytes.Buffer
	var addr string
	err := RunTool(&w, "tool", nil, "", "127.0.0.1:0", func(r *ToolRun) error {
		line := w.String()
		addr = strings.TrimSpace(strings.TrimPrefix(line, "debug server listening on "))
		if !strings.HasPrefix(line, "debug server listening on ") || addr == "" {
			t.Fatalf("first line %q", line)
		}
		r.Metrics.Counter("live.count").Inc()
		body, err := httpGet("http://" + addr + "/metrics")
		if err != nil || !contains(body, `"live.count": 1`) {
			t.Errorf("/metrics: %v %q", err, body)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Error("debug server still accepting after the run")
	}
	ran := false
	err = RunTool(&w, "tool", nil, "", "256.0.0.1:0", func(*ToolRun) error { ran = true; return nil })
	if err == nil || ran {
		t.Errorf("bad debug address: err %v, body ran %v", err, ran)
	}
}
