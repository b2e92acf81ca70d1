package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/apktool"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/droidnative"
	"github.com/dydroid/dydroid/internal/mail"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/monkey"
	"github.com/dydroid/dydroid/internal/nativebin"
	"github.com/dydroid/dydroid/internal/netsim"
	"github.com/dydroid/dydroid/internal/obfuscation"
	"github.com/dydroid/dydroid/internal/taint"
	"github.com/dydroid/dydroid/internal/trace"
	"github.com/dydroid/dydroid/internal/vm"
)

// Options configure an Analyzer.
type Options struct {
	// MonkeyEvents is the fuzzing budget per app (default 25).
	MonkeyEvents int
	// Seed drives the fuzzer deterministically.
	Seed int64
	// Tool is the apktool installation (zero value = the buggy
	// measurement-era version).
	Tool apktool.Tool
	// Classifier is the trained DroidNative detector; nil disables
	// malware detection.
	Classifier *droidnative.Classifier
	// Network is the marketplace network serving remote payloads; it is
	// cloned per app run. Nil means no connectivity.
	Network *netsim.Network
	// SetupDevice provisions companion apps (ad-target apps, Adobe AIR,
	// chat apps) on the fresh per-run device.
	SetupDevice func(*android.Device) error
	// StorageQuota bounds device storage (0 = unlimited); exercises the
	// storage-exhaustion exception handling.
	StorageQuota int64
	// RunDynamicWithoutDCL forces dynamic analysis even when the
	// pre-filter finds no DCL code (ablation; the paper skips such apps).
	RunDynamicWithoutDCL bool
	// DisableDeleteBlocking turns off the interception queue's
	// delete/rename blocking (ablation: temporary loaded files vanish
	// before the dump phase).
	DisableDeleteBlocking bool
	// StepBudget overrides the per-invocation VM budget (0 = default).
	StepBudget int
	// Metrics, when non-nil, receives per-stage duration histograms
	// (stage.unpack / stage.rewrite / stage.dynamic / stage.static /
	// stage.replay), app.total timings, and status.* counters. A nil
	// registry disables instrumentation at zero cost.
	Metrics *metrics.Registry
}

// Analyzer is the DyDroid pipeline.
type Analyzer struct {
	opts Options
}

// NewAnalyzer creates a pipeline with the given options.
func NewAnalyzer(opts Options) *Analyzer {
	if opts.MonkeyEvents == 0 {
		opts.MonkeyEvents = 25
	}
	return &Analyzer{opts: opts}
}

// AnalyzeAPK runs the full pipeline (Fig. 1) on one application archive:
// decompile, static pre-filter and obfuscation analysis, rewrite, dynamic
// exercise with DCL logging/interception/tracking, then static malware,
// vulnerability and privacy analysis of the intercepted code. When
// Options.Metrics is set, every stage duration and the final status are
// recorded into the registry.
func (a *Analyzer) AnalyzeAPK(apkBytes []byte) (*AppResult, error) {
	return a.AnalyzeAPKContext(context.Background(), apkBytes)
}

// AnalyzeAPKContext is AnalyzeAPK joining the trace carried by ctx: it
// opens an "analyze" span (the root of a fresh trace when ctx carries
// none) with one child span per executed pipeline stage, and stores the
// resulting span tree in AppResult.Trace.
func (a *Analyzer) AnalyzeAPKContext(ctx context.Context, apkBytes []byte) (*AppResult, error) {
	ctx, span := a.startStage(ctx, "analyze", "app.total")
	res, err := a.analyzeAPK(ctx, apkBytes)
	if err != nil {
		span.end(err)
		a.opts.Metrics.Add("status."+string(StatusAnalysisError), 1)
		return nil, err
	}
	span.SetAttr("package", res.Package)
	span.SetAttr("status", string(res.Status))
	span.end(nil)
	res.Trace = trace.FromContext(ctx)
	a.opts.Metrics.Add("status."+string(res.Status), 1)
	return res, nil
}

// stage is one open pipeline stage. Its span is the stage's only clock:
// end feeds the span's own duration to the stage's histogram. While it is
// open its goroutine carries the pprof label stage=<span name>, so CPU
// profile samples attribute to it.
type stage struct {
	*trace.Span
	reg    *metrics.Registry
	metric string          // histogram fed on end; "" feeds none
	parent context.Context // its labels are restored on end
}

// startStage opens the span name under ctx and labels the goroutine
// stage=name; the returned ctx carries both.
func (a *Analyzer) startStage(ctx context.Context, name, metric string) (context.Context, stage) {
	st := stage{reg: a.opts.Metrics, metric: metric, parent: ctx}
	ctx, st.Span = trace.Start(ctx, name)
	ctx = pprof.WithLabels(ctx, pprof.Labels("stage", name))
	pprof.SetGoroutineLabels(ctx)
	return ctx, st
}

// end closes the stage, recording err as its failure when non-nil.
func (s stage) end(err error) {
	pprof.SetGoroutineLabels(s.parent)
	s.EndErr(err)
	if s.metric != "" {
		s.reg.Observe(s.metric, s.Duration())
	}
}

func (a *Analyzer) analyzeAPK(ctx context.Context, apkBytes []byte) (*AppResult, error) {
	res := &AppResult{}

	_, sUnpack := a.startStage(ctx, "unpack", "stage.unpack")
	u, err := a.opts.Tool.Unpack(apkBytes)
	if err != nil {
		if errors.Is(err, apktool.ErrDecompile) {
			sUnpack.SetAttr("anti-decompile", "true")
			sUnpack.end(nil)
			res.Status = StatusUnpackFailure
			res.Obfuscation.AntiDecompile = true
			return res, nil
		}
		sUnpack.end(err)
		return nil, fmt.Errorf("core: %w", err)
	}
	res.Package = u.APK.Manifest.Package
	res.PreFilter = obfuscation.PreFilter(u)
	det := obfuscation.Detector{Tool: a.opts.Tool}
	res.Obfuscation = det.AnalyzeUnpacked(u)
	sUnpack.SetAttr("dex-dcl", strconv.FormatBool(res.PreFilter.HasDexDCL))
	sUnpack.SetAttr("native-dcl", strconv.FormatBool(res.PreFilter.HasNativeDCL))
	sUnpack.end(nil)

	if !res.PreFilter.HasDexDCL && !res.PreFilter.HasNativeDCL && !a.opts.RunDynamicWithoutDCL {
		res.Status = StatusNoDCL
		return res, nil
	}

	// From here on the archive is parsed exactly once (the Unpack above):
	// the rewrite and dynamic stages consume the parsed package and the
	// decoded bytecode directly, and replays reuse res.Prepared.
	prep := &PreparedApp{APK: u.APK, Dex: u.Dex, raw: apkBytes}
	res.Prepared = prep

	// Rewrite with the logging permission when missing. RepackParsed
	// mutates a deep copy of the already-parsed manifest; the rewritten
	// archive is serialized lazily (once) when the installer needs bytes.
	runPrep := prep
	if !u.APK.Manifest.HasPermission(apk.WriteExternalStorage) {
		_, sRewrite := a.startStage(ctx, "rewrite", "stage.rewrite")
		rewritten, err := a.opts.Tool.RepackParsed(u.APK)
		if err != nil {
			if errors.Is(err, apktool.ErrRepack) {
				sRewrite.SetAttr("anti-repackaging", "true")
				sRewrite.end(nil)
				res.Status = StatusRewriteFailure
				return res, nil
			}
			sRewrite.end(err)
			return nil, fmt.Errorf("core: %w", err)
		}
		sRewrite.end(nil)
		runPrep = &PreparedApp{APK: rewritten, Dex: u.Dex}
	}

	// Dynamic phase, with one retry after cleaning external storage when
	// the device runs out of space (automatic exception handling).
	dctx, sDynamic := a.startStage(ctx, "dynamic", "stage.dynamic")
	run, err := a.runDynamic(dctx, runPrep, nil)
	if err != nil && isNoSpace(err) {
		a.opts.Metrics.Add("dynamic.nospace-retries", 1)
		sDynamic.SetAttr("nospace-retry", "true")
		run, err = a.runDynamic(dctx, runPrep, func(dev *android.Device) {
			dev.Storage.RemovePrefix(LogRoot)
		})
	}
	if err != nil {
		sDynamic.end(err)
		return nil, fmt.Errorf("core: %w", err)
	}
	sDynamic.SetAttr("outcome", string(run.outcome))
	sDynamic.SetAttr("events", strconv.Itoa(len(run.events)))
	for _, ev := range run.events {
		sDynamic.AddEvent("dcl",
			trace.A("kind", string(ev.Kind)),
			trace.A("api", ev.API),
			trace.A("path", ev.Path),
			trace.A("entity", string(ev.Entity)),
			trace.A("provenance", string(ev.Provenance)))
	}
	sDynamic.end(nil)
	res.Events = run.events
	res.RuntimeEvents = run.vmEvents
	switch run.outcome {
	case monkey.OutcomeNoActivity:
		res.Status = StatusNoActivity
		return res, nil
	case monkey.OutcomeCrash:
		// Crashes keep whatever was intercepted before the process died.
		res.Status = StatusCrash
		res.Crash = run.crash
	default:
		res.Status = StatusExercised
	}

	_, sStatic := a.startStage(ctx, "static", "stage.static")
	a.staticOnIntercepted(res)
	minSDK := u.APK.Manifest.MinSDK
	res.Vulns = AnalyzeVulnerabilities(res.Package, minSDK, res.Events)
	sStatic.SetAttr("malware", strconv.Itoa(len(res.Malware)))
	sStatic.SetAttr("vulns", strconv.Itoa(len(res.Vulns)))
	sStatic.end(nil)
	return res, nil
}

// isNoSpace reports whether the error chain reaches the storage layer's
// quota-exhaustion sentinel. Every exhaustion path wraps
// android.ErrNoSpace (the VM preserves inner error chains with %w), so a
// plain errors.Is suffices — no string matching.
func isNoSpace(err error) bool {
	return errors.Is(err, android.ErrNoSpace)
}

// PreparedApp is the parse-once state of one application archive: the
// parsed package, its decoded bytecode, and the serialized archive bytes
// (kept when the pipeline received them, built lazily — at most once —
// otherwise). AnalyzeAPK publishes it on AppResult.Prepared so the
// replay path reuses the same parse instead of re-reading the archive.
type PreparedApp struct {
	// APK is the parsed package, shared (not copied) across stages.
	APK *apk.APK
	// Dex is the decoded bytecode (nil when the app ships none). The VM
	// boots from it directly; decoded classes are immutable at runtime.
	Dex *dex.File

	raw       []byte // archive as received; nil → serialize on demand
	buildOnce sync.Once
	built     []byte
	buildErr  error
}

// Archive returns the serialized archive, building (and caching) it when
// the prepared app was never in byte form — the rewritten package, whose
// serialization is deferred until the installer actually stores it.
func (p *PreparedApp) Archive() ([]byte, error) {
	if p.raw != nil {
		return p.raw, nil
	}
	p.buildOnce.Do(func() {
		p.built, p.buildErr = apk.Build(p.APK)
	})
	return p.built, p.buildErr
}

// PrepareAPK parses an archive once into the form the replay path
// consumes. AnalyzeAPK callers get one for free via AppResult.Prepared.
func PrepareAPK(apkBytes []byte) (*PreparedApp, error) {
	parsed, err := apk.Parse(apkBytes)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	prep := &PreparedApp{APK: parsed, raw: apkBytes}
	if parsed.Dex != nil {
		df, err := dex.Decode(parsed.Dex)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", parsed.Manifest.Package, err)
		}
		prep.Dex = df
	}
	return prep, nil
}

// dynRun is the outcome of one dynamic exercise.
type dynRun struct {
	outcome  monkey.Outcome
	crash    error
	events   []*DCLEvent
	vmEvents []vm.Event
}

// runDynamic provisions a fresh device, installs the app with full
// instrumentation and exercises it. preLaunch mutates the device after
// provisioning (used by the retry path and the Table VIII replays). The
// dump phase gets its own "interception" child span under ctx's span.
func (a *Analyzer) runDynamic(ctx context.Context, prep *PreparedApp, preLaunch func(*android.Device)) (*dynRun, error) {
	devOpts := []android.Option{}
	if a.opts.StorageQuota > 0 {
		devOpts = append(devOpts, android.WithStorageQuota(a.opts.StorageQuota))
	}
	dev := android.NewDevice(devOpts...)
	if a.opts.SetupDevice != nil {
		if err := a.opts.SetupDevice(dev); err != nil {
			return nil, fmt.Errorf("core: device setup: %w", err)
		}
	}
	var net *netsim.Network
	if a.opts.Network != nil {
		net = a.opts.Network.Clone()
		net.Online = dev.NetworkAvailable
	}
	archive, err := prep.Archive()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	app, err := dev.Packages.InstallArchive(prep.APK, archive)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	app.Decoded = prep.Dex
	logger := NewLogger(app.Package, dev.Storage)
	logger.DisableBlocking = a.opts.DisableDeleteBlocking
	tracker := NewTracker()
	if preLaunch != nil {
		preLaunch(dev)
	}
	machine, err := vm.New(dev, net, app, logger, tracker)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if a.opts.StepBudget > 0 {
		machine.StepBudget = a.opts.StepBudget
	}
	mres := monkey.Exercise(machine, a.opts.MonkeyEvents, a.opts.Seed)

	_, sIntercept := a.startStage(ctx, "interception", "")
	logger.FinalizeInterception()
	events := logger.Events()
	tracker.Annotate(events)
	// Measurement events exclude system libraries.
	var kept []*DCLEvent
	intercepted := 0
	for _, ev := range events {
		if !ev.SystemLib {
			kept = append(kept, ev)
			if ev.Intercepted != nil {
				intercepted++
			}
		}
	}
	dumped, err := logger.DumpIntercepted()
	sIntercept.SetAttr("intercepted", strconv.Itoa(intercepted))
	sIntercept.SetAttr("dumped", strconv.Itoa(len(dumped)))
	if err != nil && !isNoSpace(err) {
		sIntercept.end(err)
		return nil, err
	}
	sIntercept.end(nil)
	return &dynRun{
		outcome:  mres.Outcome,
		crash:    mres.Err,
		events:   kept,
		vmEvents: machine.Events(),
	}, nil
}

// staticOnIntercepted runs DroidNative and the taint analysis over every
// intercepted binary and fills the malware/privacy sections of the
// result.
func (a *Analyzer) staticOnIntercepted(res *AppResult) {
	merged := &taint.Result{SourcesSeen: make(map[android.DataType]bool)}
	// Dedup keys on (path, content hash), not path alone: a payload
	// overwritten at the same path between two loads (the packer-swap
	// pattern, §V-F) is a distinct binary and must still be classified.
	type interceptKey struct {
		path string
		sum  [sha256.Size]byte
	}
	classified := make(map[interceptKey]bool)
	anyDex := false
	for _, ev := range res.Events {
		if ev.Intercepted == nil {
			continue
		}
		key := interceptKey{path: ev.Path, sum: sha256.Sum256(ev.Intercepted)}
		if classified[key] {
			continue
		}
		classified[key] = true
		switch {
		case dex.IsOptimized(ev.Intercepted), isDex(ev.Intercepted):
			df, err := dex.Decode(ev.Intercepted)
			if err != nil {
				continue
			}
			anyDex = true
			if a.opts.Classifier != nil {
				if det := a.opts.Classifier.Classify(mail.FromDex(df)); det.Malware {
					res.Malware = append(res.Malware, MalwareHit{
						Path: ev.Path, Kind: KindDex, Family: det.Family, Score: det.Score,
					})
				}
			}
			tr := taint.Analyze(df)
			merged.Leaks = append(merged.Leaks, tr.Leaks...)
			for dt := range tr.SourcesSeen {
				merged.SourcesSeen[dt] = true
			}
		case nativebin.IsSELF(ev.Intercepted):
			if a.opts.Classifier == nil {
				continue
			}
			lib, err := nativebin.Decode(ev.Intercepted)
			if err != nil {
				continue
			}
			if det := a.opts.Classifier.Classify(mail.FromNative(lib)); det.Malware {
				res.Malware = append(res.Malware, MalwareHit{
					Path: ev.Path, Kind: KindNative, Family: det.Family, Score: det.Score,
				})
			}
		}
	}
	if anyDex {
		res.Privacy = merged
		res.PrivacyByEntity = make(map[string]bool)
		for _, dt := range merged.LeakedTypes() {
			exclusive := true
			for _, cls := range merged.LeakClasses(dt) {
				if classifyEntity(res.Package, cls) == EntityOwn {
					exclusive = false
					break
				}
			}
			res.PrivacyByEntity[string(dt)] = exclusive
		}
	}
}

func isDex(data []byte) bool {
	return len(data) >= 4 && string(data[:4]) == dex.Magic
}

// ReplayUnderConfig re-runs the app's dynamic analysis under one Table
// VIII runtime configuration and returns the set of file paths whose DCL
// events fired (used to test whether malicious loads are gated on the
// environment).
func (a *Analyzer) ReplayUnderConfig(apkBytes []byte, cfg ReplayConfig, releaseDate time.Time) (map[string]bool, error) {
	return a.ReplayUnderConfigContext(context.Background(), apkBytes, cfg, releaseDate)
}

// ReplayUnderConfigContext is ReplayUnderConfig joining the trace carried
// by ctx with a "replay" span annotated with the configuration, so an
// app's replays land in the same span tree as its analysis.
func (a *Analyzer) ReplayUnderConfigContext(ctx context.Context, apkBytes []byte, cfg ReplayConfig, releaseDate time.Time) (map[string]bool, error) {
	prep, err := PrepareAPK(apkBytes)
	if err != nil {
		return nil, err
	}
	return a.ReplayPreparedContext(ctx, prep, cfg, releaseDate)
}

// ReplayPreparedContext is the parse-once replay path: it re-runs an
// already-prepared app (AppResult.Prepared, or PrepareAPK) under one
// Table VIII configuration without touching archive bytes again.
func (a *Analyzer) ReplayPreparedContext(ctx context.Context, prep *PreparedApp, cfg ReplayConfig, releaseDate time.Time) (map[string]bool, error) {
	if releaseDate.IsZero() {
		releaseDate = DefaultReleaseDate
	}
	ctx, span := a.startStage(ctx, "replay", "stage.replay")
	span.SetAttr("config", string(cfg))
	run, err := a.runDynamic(ctx, prep, func(dev *android.Device) {
		switch cfg {
		case ConfigTimeBeforeRelease:
			dev.SetClock(releaseDate.AddDate(0, -1, 0))
		case ConfigAirplaneWiFiOn:
			dev.SetAirplaneMode(true)
			dev.SetWiFi(true)
		case ConfigAirplaneWiFiOff:
			dev.SetAirplaneMode(true)
		case ConfigLocationOff:
			dev.SetLocationEnabled(false)
		}
	})
	if err != nil {
		span.end(err)
		return nil, err
	}
	loaded := make(map[string]bool)
	for _, ev := range run.events {
		loaded[ev.Path] = true
	}
	span.SetAttr("loaded", strconv.Itoa(len(loaded)))
	span.end(nil)
	return loaded, nil
}

// RewriteNeeded reports whether dynamic analysis of this archive would
// require repackaging (no WRITE_EXTERNAL_STORAGE declared).
func RewriteNeeded(a *apk.APK) bool {
	return !a.Manifest.HasPermission(apk.WriteExternalStorage)
}
