package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/dydroid/dydroid/internal/profile"
)

// runProfile implements the profile subcommand — the reader side of the
// fleet's continuous-profiling ring:
//
//	apkinspect profile list [-json] -url http://daemon:8437
//
// list renders the window index (a worker's own ring, or a
// coordinator's federated view across every member). A window itself is
// read by the Go toolchain: -top -tagroot stage prints the function table
// with each pipeline stage as a root frame, -tags the stage split alone,
// and -diff_base the regression between two windows. Through a
// coordinator, &node= picks the member:
//
//	go tool pprof -top -tagroot stage 'http://daemon:8437/v1/profiles/<id>?format=pprof'
//	go tool pprof -top -diff_base OLD NEW
func runProfile(w io.Writer, args []string) error {
	const usage = "usage: apkinspect profile list [-json] -url URL"
	if len(args) < 1 || args[0] != "list" {
		return fmt.Errorf("%s", usage)
	}
	fs := flag.NewFlagSet("profile list", flag.ContinueOnError)
	baseURL := fs.String("url", "", "daemon or coordinator base URL")
	asJSON := fs.Bool("json", false, "print raw JSON instead of tables")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *baseURL == "" || fs.NArg() != 0 {
		return fmt.Errorf("%s", usage)
	}
	metas, raw, err := fetchProfileIndex(*baseURL)
	if err != nil {
		return err
	}
	if *asJSON {
		_, err := w.Write(append(raw, '\n'))
		return err
	}
	profile.RenderIndex(w, metas)
	return nil
}

// fetchProfileIndex pulls a /v1/profiles index. Workers answer a bare
// window array; coordinators answer the federated envelope with
// node-tagged rows — both decode to the same table.
func fetchProfileIndex(base string) ([]profile.Meta, []byte, error) {
	body, err := httpGetAll(normalizeBase(base) + "/v1/profiles")
	if err != nil {
		return nil, nil, err
	}
	trimmed := strings.TrimSpace(string(body))
	if strings.HasPrefix(trimmed, "[") {
		var metas []profile.Meta
		if err := json.Unmarshal(body, &metas); err != nil {
			return nil, nil, fmt.Errorf("decode profile index: %w", err)
		}
		return metas, body, nil
	}
	var federated struct {
		Missing []string       `json:"missing"`
		Windows []profile.Meta `json:"windows"`
	}
	if err := json.Unmarshal(body, &federated); err != nil {
		return nil, nil, fmt.Errorf("decode federated profile index: %w", err)
	}
	if len(federated.Missing) > 0 {
		fmt.Fprintf(os.Stderr, "apkinspect: warning: %d node(s) unreachable: %s\n",
			len(federated.Missing), strings.Join(federated.Missing, ", "))
	}
	return federated.Windows, body, nil
}

func normalizeBase(base string) string {
	base = strings.TrimRight(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return base
}

func httpGetAll(target string) ([]byte, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(target)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", target, resp.StatusCode, body)
	}
	return body, nil
}
