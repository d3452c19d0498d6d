package obs

import (
	"fmt"
	"io"
)

// ToolRun is the observability of one command-line tool run. Metrics and
// Trace are nil unless a report or a debug server asks for them, which
// disables every instrument downstream.
type ToolRun struct {
	Metrics *Metrics
	Trace   *Trace
	report  *RunReport
}

// SetExtra records a tool-specific result in the run's report; without a
// report it does nothing.
func (r *ToolRun) SetExtra(key string, v any) {
	if r.report != nil {
		r.report.SetExtra(key, v)
	}
}

// RunTool runs body under the observability that reportPath and debugAddr
// ask for; either may be empty. With debugAddr, a debug server serves
// Metrics while body runs, and "debug server listening on ADDR" is written
// to w first. With reportPath, once body succeeds, a RunReport of tool and
// args carrying Metrics, Trace's spans and body's extras is written there
// and "report written to PATH" is written to w. body's error is returned
// as is, and no report is written after one.
func RunTool(w io.Writer, tool string, args []string, reportPath, debugAddr string, body func(*ToolRun) error) error {
	r := &ToolRun{}
	if reportPath != "" || debugAddr != "" {
		r.Metrics, r.Trace = New(), NewTrace()
	}
	if reportPath != "" {
		r.report = NewRunReport(tool, args)
	}
	if debugAddr != "" {
		srv, err := StartDebugServer(debugAddr, r.Metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(w, "debug server listening on %s\n", srv.Addr)
	}
	if err := body(r); err != nil {
		return err
	}
	if r.report == nil {
		return nil
	}
	r.report.AddMetrics(r.Metrics)
	r.report.AddTrace(r.Trace)
	if err := r.report.WriteFile(reportPath); err != nil {
		return err
	}
	fmt.Fprintf(w, "report written to %s\n", reportPath)
	return nil
}
