// Command mcbound-infer is the Inference Workflow script of Figure 1: it
// asks a running mcbound-server to classify either one job by id or all
// jobs submitted in a time range, and prints the memory/compute-bound
// predictions. A range is read page by page (the server caps a page at
// 1000 jobs) and printed as one {"items": [...]} document.
//
// Usage:
//
//	mcbound-infer -server http://localhost:8080 -job fj000012345
//	mcbound-infer -start 2024-02-01T00:00:00Z -end 2024-02-02T00:00:00Z
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"time"

	"mcbound/internal/peer"
)

func main() {
	var (
		server  = flag.String("server", "http://localhost:8080", "MCBound backend base URL")
		jobID   = flag.String("job", "", "classify a single job by id")
		start   = flag.String("start", "", "classify jobs submitted from this instant (RFC 3339)")
		end     = flag.String("end", "", "classify jobs submitted before this instant (RFC 3339)")
		timeout = flag.Duration("timeout", 10*time.Minute, "request timeout")
	)
	flag.Parse()

	if err := run(os.Stdout, *server, *jobID, *start, *end, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "mcbound-infer:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, server, jobID, start, end string, timeout time.Duration) error {
	client := &http.Client{Timeout: timeout}
	switch {
	case jobID != "":
		payload, err := get(client, server+"/v1/classify/"+url.PathEscape(jobID))
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%s\n", payload)
		return err
	case start != "" && end != "":
		items, err := classifyRange(client, server, start, end)
		if err != nil {
			return err
		}
		return json.NewEncoder(out).Encode(map[string]any{"items": items})
	default:
		return fmt.Errorf("either -job or both -start and -end are required")
	}
}

// classifyRange walks the cursor pages of GET /v1/classify and returns
// the predictions of every job submitted in [start, end), in page order.
func classifyRange(client *http.Client, server, start, end string) ([]json.RawMessage, error) {
	first := fmt.Sprintf("%s/v1/classify?start=%s&end=%s",
		server, url.QueryEscape(start), url.QueryEscape(end))
	items := []json.RawMessage{}
	for target := first; ; {
		payload, err := get(client, target)
		if err != nil {
			return nil, err
		}
		var page struct {
			Items      []json.RawMessage `json:"items"`
			NextCursor string            `json:"next_cursor"`
			HasMore    bool              `json:"has_more"`
		}
		if err := json.Unmarshal(payload, &page); err != nil {
			return nil, fmt.Errorf("decode page: %w", err)
		}
		items = append(items, page.Items...)
		if !page.HasMore {
			return items, nil
		}
		if page.NextCursor == "" {
			return nil, fmt.Errorf("server reported more pages without a next_cursor")
		}
		target = first + "&cursor=" + url.QueryEscape(page.NextCursor)
	}
}

func get(client *http.Client, target string) ([]byte, error) {
	// A page is at most 1000 predictions; 16 MiB is far above it.
	payload, _, err := peer.Do(context.Background(), client, peer.Call{Method: http.MethodGet, URL: target, Limit: 16 << 20})
	return payload, err
}
