package main

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"cloudlens/internal/report"
	"cloudlens/internal/stream"
)

// watch polls a live replay's status and summary endpoints, printing one
// progress line per poll. It returns once the replay reports done, after
// count polls (when count > 0), or on the first transport error.
//
// The status poll is always unconditional (progress counters move every
// tick), but the summary poll replays the last snapshot ETag via
// If-None-Match: between fold boundaries the server answers 304 with no
// body and the cached summary is reused, so a tight -interval costs the
// server a header check rather than a re-aggregation.
func watch(client *http.Client, base string, interval time.Duration, count int, w io.Writer) error {
	var (
		etag string
		sum  stream.Summary
	)
	for polls := 0; ; {
		var st stream.Status
		if _, err := fetch(client, base+"/api/v1/live/status", "", nil, &st); err != nil {
			return err
		}
		tag, err := fetch(client, base+"/api/v1/live/summary", etag, nil, &sum)
		if err != nil {
			return err
		}
		etag = tag

		line := fmt.Sprintf("step %d/%d", st.Step, st.Steps)
		if st.Steps > 0 {
			line += fmt.Sprintf(" (%.1f%%)", 100*float64(st.Step)/float64(st.Steps))
		}
		line += fmt.Sprintf("  %d samples  %.0f/s  %d folds", st.SamplesIngested, st.SamplesPerSec, st.Folds)
		for _, cloud := range []string{"private", "public"} {
			if cl, ok := sum.Clouds[cloud]; ok {
				line += fmt.Sprintf("  %s: %d subs p50 %s p95 %s", cloud,
					cl.Subscriptions, report.Pct(cl.UtilP50), report.Pct(cl.UtilP95))
			}
		}
		fmt.Fprintln(w, line)

		if st.Done {
			fmt.Fprintln(w, "replay finished")
			return nil
		}
		polls++
		if count > 0 && polls >= count {
			return nil
		}
		time.Sleep(interval)
	}
}
