// Command apkinspect is the baksmali/apktool analogue: it unpacks an APK
// archive, prints the manifest and content summary, and optionally dumps
// the smali IR of a class or the disassembly of a native library.
//
// Usage:
//
//	apkinspect app.apk                 # summary
//	apkinspect -smali com.foo.Main app.apk
//	apkinspect -lib libshell.so app.apk
//	apkinspect -fixed app.apk          # use the decompiler version that
//	                                   # survives anti-decompilation
//
// The trace subcommand renders analysis span trees as indented timing
// trees — from a daemon trace store (dydroidd -traces DIR) or from a
// JSONL file written by experiments -trace:
//
//	apkinspect trace -store DIR <digest>
//	apkinspect trace -url http://coordinator:8437 <digest>   # stitched cross-node tree
//	apkinspect trace traces.jsonl
//
// The fleet subcommand merges per-shard measurement snapshots (the
// fleet.json files sharded experiments runs write, or saved /v1/fleet
// responses from dydroidd) into one paper-style report:
//
//	apkinspect fleet merge shard1/fleet.json shard2/fleet.json
//	apkinspect fleet merge -o merged.json shard*/fleet.json
//
// The cluster subcommand asks a dydroidd coordinator for per-node
// health, ring ownership shares, queue gauges, and snapshot versions:
//
//	apkinspect cluster status http://coordinator:8437
//	apkinspect cluster status -json http://coordinator:8437
//
// The profile subcommand lists the fleet's continuous-profiling ring (a
// coordinator answers with every member's windows); `go tool pprof`
// reads a window's raw bytes, and -tagroot stage (or -tags) shows its
// CPU by pipeline stage:
//
//	apkinspect profile list -url http://daemon:8437
//	go tool pprof -top -tagroot stage 'http://coordinator:8437/v1/profiles/w000003?format=pprof&node=node1'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/dydroid/dydroid/internal/apktool"
	"github.com/dydroid/dydroid/internal/nativebin"
	"github.com/dydroid/dydroid/internal/obfuscation"
	"github.com/dydroid/dydroid/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		if err := runTrace(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "apkinspect:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		if err := runFleet(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "apkinspect:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "cluster" {
		if err := runCluster(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "apkinspect:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "profile" {
		if err := runProfile(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "apkinspect:", err)
			os.Exit(1)
		}
		return
	}
	smali := flag.String("smali", "", "print the smali IR of this class")
	lib := flag.String("lib", "", "print the disassembly of this native library")
	fixed := flag.Bool("fixed", false, "use the fixed decompiler version")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: apkinspect [flags] app.apk | apkinspect trace [-store DIR] <digest|file.jsonl>")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), *smali, *lib, *fixed); err != nil {
		fmt.Fprintln(os.Stderr, "apkinspect:", err)
		os.Exit(1)
	}
}

// runTrace renders stored span trees. With -store the argument is a
// signing digest resolved against a dydroidd trace store; with -url it
// is a digest fetched live from a daemon or coordinator (a coordinator
// answers with the stitched cross-node tree: its route/failover spans
// with the owning worker's analysis subtree grafted underneath);
// otherwise it is a JSONL file of traces (experiments -trace output),
// all rendered in order.
func runTrace(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	storeDir := fs.String("store", "", "trace store directory (argument is a digest)")
	baseURL := fs.String("url", "", "daemon or coordinator base URL (argument is a digest, fetched from /v1/trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: apkinspect trace [-store DIR | -url URL] <digest|file.jsonl>")
	}
	arg := fs.Arg(0)
	if *baseURL != "" {
		return renderRemoteTrace(w, *baseURL, arg)
	}
	if *storeDir != "" {
		st, err := trace.OpenStore(trace.StoreOptions{Dir: *storeDir})
		if err != nil {
			return err
		}
		t, err := st.Get(arg)
		if err != nil {
			return err
		}
		trace.Render(w, t)
		return nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return err
	}
	defer f.Close()
	traces, err := trace.DecodeJSONL(f)
	if err != nil {
		return err
	}
	if len(traces) == 0 {
		return fmt.Errorf("%s holds no traces", arg)
	}
	for i, t := range traces {
		if i > 0 {
			fmt.Fprintln(w)
		}
		trace.Render(w, t)
	}
	return nil
}

// renderRemoteTrace fetches /v1/trace/{digest} from a live daemon or
// coordinator and renders the tree, naming the node that stitched it
// when the answer carries one.
func renderRemoteTrace(w io.Writer, base, digest string) error {
	base = strings.TrimRight(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(base + "/v1/trace/" + digest)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace %s: status %d: %s", digest, resp.StatusCode, body)
	}
	var t trace.Trace
	if err := json.Unmarshal(body, &t); err != nil {
		return fmt.Errorf("decode trace: %w", err)
	}
	if node := resp.Header.Get("X-Dydroid-Node"); node != "" {
		fmt.Fprintf(w, "worker subtree from %s\n", node)
	}
	trace.Render(w, &t)
	return nil
}

func run(w io.Writer, path, smali, lib string, fixed bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	tool := apktool.Tool{}
	if fixed {
		tool.Version = apktool.FixedVersion
	}
	u, err := tool.Unpack(data)
	if err != nil {
		return err
	}
	switch {
	case smali != "":
		src, ok := u.Smali()[smali]
		if !ok {
			return fmt.Errorf("no class %s (have %d classes)", smali, len(u.Smali()))
		}
		fmt.Fprint(w, src)
		return nil
	case lib != "":
		libBytes, ok := u.APK.NativeLibs[lib]
		if !ok {
			return fmt.Errorf("no native library %s", lib)
		}
		l, err := nativebin.Decode(libBytes)
		if err != nil {
			return err
		}
		fmt.Fprint(w, nativebin.Disassemble(l))
		return nil
	}

	m := u.APK.Manifest
	fmt.Fprintf(w, "package:    %s (versionCode %d, minSdk %d)\n", m.Package, m.VersionCode, m.MinSDK)
	if m.Application.Name != "" {
		fmt.Fprintf(w, "app class:  %s  <- runs before all components\n", m.Application.Name)
	}
	for _, p := range m.Permissions {
		fmt.Fprintf(w, "permission: %s\n", p.Name)
	}
	for _, c := range m.Components() {
		fmt.Fprintf(w, "component:  %-9s %s\n", c.Kind, c.Name)
	}
	var classes []string
	for name := range u.Smali() {
		classes = append(classes, name)
	}
	sort.Strings(classes)
	for _, name := range classes {
		fmt.Fprintf(w, "class:      %s\n", name)
	}
	var assets []string
	for name := range u.APK.Assets {
		assets = append(assets, name)
	}
	sort.Strings(assets)
	for _, name := range assets {
		fmt.Fprintf(w, "asset:      %s (%d bytes)\n", name, len(u.APK.Assets[name]))
	}
	var libs []string
	for name := range u.APK.NativeLibs {
		libs = append(libs, name)
	}
	sort.Strings(libs)
	for _, name := range libs {
		fmt.Fprintf(w, "native lib: %s (%d bytes)\n", name, len(u.APK.NativeLibs[name]))
	}

	f := obfuscation.PreFilter(u)
	fmt.Fprintf(w, "pre-filter: dex-dcl=%v native-dcl=%v\n", f.HasDexDCL, f.HasNativeDCL)
	var det obfuscation.Detector
	rep := det.AnalyzeUnpacked(u)
	fmt.Fprintf(w, "obfuscation: lexical=%v (meaningful %.0f%%) reflection=%v native=%v dex-encryption=%v\n",
		rep.Lexical, rep.MeaningfulFraction*100, rep.Reflection, rep.Native, rep.DEXEncryption)
	return nil
}
