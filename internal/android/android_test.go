package android

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/dydroid/dydroid/internal/apk"
)

func testAPK(pkg string, perms ...string) *apk.APK {
	m := apk.Manifest{
		Package: pkg,
		MinSDK:  16,
		Application: apk.Application{
			Activities: []apk.Component{{Name: pkg + ".Main", Main: true}},
		},
	}
	for _, p := range perms {
		m.AddPermission(p)
	}
	return &apk.APK{
		Manifest:   m,
		Dex:        []byte("dexbytes"),
		Assets:     map[string][]byte{"cfg.json": []byte("{}")},
		NativeLibs: map[string][]byte{"libnative.so": {1, 2}},
	}
}

func TestDeviceClockAndToggles(t *testing.T) {
	d := NewDevice()
	t0 := d.Now()
	d.AdvanceClock(time.Hour)
	if got := d.Now().Sub(t0); got != time.Hour {
		t.Fatalf("AdvanceClock moved %v, want 1h", got)
	}
	past := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	d.SetClock(past)
	if !d.Now().Equal(past) {
		t.Fatal("SetClock did not apply")
	}

	if !d.NetworkAvailable() {
		t.Fatal("fresh device should have connectivity")
	}
	d.SetAirplaneMode(true)
	if d.NetworkAvailable() {
		t.Fatal("airplane mode should disable connectivity (WiFi forced off)")
	}
	d.SetWiFi(true) // the paper's "Airplane mode/WiFi ON" configuration
	if !d.NetworkAvailable() {
		t.Fatal("WiFi re-enabled in airplane mode should restore connectivity")
	}
	d.SetLocationEnabled(false)
	if d.LocationEnabled() {
		t.Fatal("location toggle did not apply")
	}
}

func TestStorageInternalOwnership(t *testing.T) {
	d := NewDevice()
	st := d.Storage
	path := InternalDir("com.victim") + "files/secret.dex"
	if err := st.WriteFile(path, []byte("v1"), "com.victim", false); err != nil {
		t.Fatalf("owner write: %v", err)
	}
	err := st.WriteFile(path, []byte("evil"), "com.attacker", false)
	if !errors.Is(err, ErrPermission) {
		t.Fatalf("foreign internal write: err = %v, want ErrPermission", err)
	}
	// Reads across apps succeed (pre-N world-readable app dirs).
	data, err := st.ReadFile(path)
	if err != nil || string(data) != "v1" {
		t.Fatalf("read = %q, %v", data, err)
	}
}

func TestStorageExternalAPILevelSemantics(t *testing.T) {
	// Pre-KitKat: any app writes external storage.
	d := NewDevice(WithAPILevel(18))
	if err := d.Storage.WriteFile(ExternalRoot+"im_sdk/jar/x.jar", []byte("a"), "any.app", false); err != nil {
		t.Fatalf("pre-KitKat external write: %v", err)
	}
	// KitKat+: requires the permission.
	d2 := NewDevice(WithAPILevel(19))
	err := d2.Storage.WriteFile(ExternalRoot+"x.jar", []byte("a"), "any.app", false)
	if !errors.Is(err, ErrPermission) {
		t.Fatalf("KitKat external write without perm: err = %v", err)
	}
	if err := d2.Storage.WriteFile(ExternalRoot+"x.jar", []byte("a"), "any.app", true); err != nil {
		t.Fatalf("KitKat external write with perm: %v", err)
	}
}

func TestStorageQuota(t *testing.T) {
	d := NewDevice(WithStorageQuota(10))
	st := d.Storage
	if err := st.WriteFile(ExternalRoot+"a", make([]byte, 8), "app", false); err != nil {
		t.Fatal(err)
	}
	err := st.WriteFile(ExternalRoot+"b", make([]byte, 8), "app", false)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("quota overflow: err = %v, want ErrNoSpace", err)
	}
	// Replacing a file accounts for the freed bytes.
	if err := st.WriteFile(ExternalRoot+"a", make([]byte, 10), "app", false); err != nil {
		t.Fatalf("replace within quota: %v", err)
	}
	if got := st.Used(); got != 10 {
		t.Fatalf("Used() = %d, want 10", got)
	}
	st.RemovePrefix(ExternalRoot)
	if got := st.Used(); got != 0 {
		t.Fatalf("Used() after RemovePrefix = %d, want 0", got)
	}
}

func TestStorageDeleteRename(t *testing.T) {
	d := NewDevice()
	st := d.Storage
	p := InternalDir("com.app") + "cache/ad1.dex"
	if err := st.WriteFile(p, []byte("x"), "com.app", false); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(p, "other.app"); !errors.Is(err, ErrPermission) {
		t.Fatalf("foreign delete: err = %v", err)
	}
	np := InternalDir("com.app") + "cache/ad2.dex"
	if err := st.Rename(p, np, "com.app", false); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if st.Exists(p) || !st.Exists(np) {
		t.Fatal("rename did not move the file")
	}
	if err := st.Delete(np, "com.app"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(np, "com.app"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double delete: err = %v", err)
	}
}

func TestStorageRenameReplacesQuotaAccounting(t *testing.T) {
	d := NewDevice(WithStorageQuota(100))
	st := d.Storage
	if err := st.WriteFile(ExternalRoot+"a", make([]byte, 30), "app", false); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteFile(ExternalRoot+"b", make([]byte, 40), "app", false); err != nil {
		t.Fatal(err)
	}
	if err := st.Rename(ExternalRoot+"a", ExternalRoot+"b", "app", false); err != nil {
		t.Fatal(err)
	}
	if got := st.Used(); got != 30 {
		t.Fatalf("Used() after replacing rename = %d, want 30", got)
	}
}

func TestOwnerOfInternalPath(t *testing.T) {
	tests := []struct {
		path, want string
	}{
		{"/data/data/com.foo/cache/x.dex", "com.foo"},
		{"/data/data/com.foo", "com.foo"},
		{"/mnt/sdcard/x", ""},
		{"/system/lib/libc.so", ""},
	}
	for _, tc := range tests {
		if got := OwnerOfInternalPath(tc.path); got != tc.want {
			t.Fatalf("OwnerOfInternalPath(%q) = %q, want %q", tc.path, got, tc.want)
		}
	}
}

func TestInstallQuotaFailureNamesFirstFile(t *testing.T) {
	// Extraction runs in name order, so when the quota runs out the error
	// names the same file on every install.
	a := testAPK("com.example.full")
	a.NativeLibs = map[string][]byte{"libd.so": make([]byte, 64), "libb.so": make([]byte, 64)}
	a.Assets = map[string][]byte{"z.bin": make([]byte, 64), "c.bin": make([]byte, 64)}
	archive, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	for quota, want := range map[int64]string{
		int64(len(archive)) + 10:  "/data/data/com.example.full/lib/libb.so",
		int64(len(archive)) + 150: "/data/data/com.example.full/assets/c.bin",
	} {
		for i := 0; i < 20; i++ {
			d := NewDevice(WithStorageQuota(quota))
			_, err = d.Packages.InstallArchive(a, archive)
			if !errors.Is(err, ErrNoSpace) || !strings.HasSuffix(err.Error(), " to "+want) {
				t.Fatalf("quota %d: err = %v, want ErrNoSpace naming %s", quota, err, want)
			}
		}
	}
}

func TestPackageManagerInstall(t *testing.T) {
	d := NewDevice()
	app, err := d.Packages.Install(testAPK("com.example.app", "android.permission.INTERNET"))
	if err != nil {
		t.Fatalf("Install: %v", err)
	}
	if app.DataDir != "/data/data/com.example.app/" {
		t.Fatalf("DataDir = %q", app.DataDir)
	}
	// Native lib extracted into app lib dir and owned by the app.
	owner, size, err := d.Storage.Stat(app.DataDir + "lib/libnative.so")
	if err != nil || owner != "com.example.app" || size != 2 {
		t.Fatalf("lib stat = %q/%d/%v", owner, size, err)
	}
	// Asset extracted.
	if !d.Storage.Exists(app.DataDir + "assets/cfg.json") {
		t.Fatal("asset not extracted")
	}
	// APK copied.
	if !d.Storage.Exists("/data/app/com.example.app.apk") {
		t.Fatal("apk not stored")
	}
	// Duplicate install rejected.
	if _, err := d.Packages.Install(testAPK("com.example.app")); err == nil {
		t.Fatal("duplicate install accepted")
	}
	pkgs := d.Packages.InstalledPackages()
	if len(pkgs) != 1 || pkgs[0] != "com.example.app" {
		t.Fatalf("InstalledPackages = %v", pkgs)
	}
	if err := d.Packages.Uninstall("com.example.app"); err != nil {
		t.Fatal(err)
	}
	if d.Storage.Exists(app.DataDir + "lib/libnative.so") {
		t.Fatal("uninstall left data behind")
	}
	if err := d.Packages.Uninstall("com.example.app"); err == nil {
		t.Fatal("double uninstall accepted")
	}
}

func TestPtraceRequiresRoot(t *testing.T) {
	d := NewDevice()
	victim := d.StartProcess("com.tencent.mm", 10001)
	attacker := d.StartProcess("com.evil", 10002)
	if err := d.PtraceAttach(attacker, victim.PID); err == nil {
		t.Fatal("non-root cross-package ptrace allowed")
	}
	root := d.StartProcess("com.evil", 0)
	if err := d.PtraceAttach(root, victim.PID); err != nil {
		t.Fatalf("root ptrace: %v", err)
	}
	evs := d.PtraceEvents()
	if len(evs) != 1 || evs[0].TraceePkg != "com.tencent.mm" {
		t.Fatalf("PtraceEvents = %+v", evs)
	}
	if err := d.PtraceAttach(root, 99999); err == nil {
		t.Fatal("ptrace of missing pid allowed")
	}
	d.ResetRuntimeState()
	if len(d.PtraceEvents()) != 0 || d.FindProcessByPackage("com.evil") != nil {
		t.Fatal("ResetRuntimeState did not clear")
	}
}

func TestFindProcessByPackageDeterministic(t *testing.T) {
	d := NewDevice()
	p1 := d.StartProcess("com.app", 10001)
	d.StartProcess("com.app", 10001)
	if got := d.FindProcessByPackage("com.app"); got == nil || got.PID != p1.PID {
		t.Fatalf("FindProcessByPackage returned %+v, want pid %d", got, p1.PID)
	}
}

func TestCatalogCoverage(t *testing.T) {
	if len(AllDataTypes) != 18 {
		t.Fatalf("AllDataTypes has %d entries, want 18 (Table X)", len(AllDataTypes))
	}
	counts := map[Category]int{}
	for _, dt := range AllDataTypes {
		cat, ok := CategoryOf[dt]
		if !ok {
			t.Fatalf("data type %q has no category", dt)
		}
		counts[cat]++
	}
	want := map[Category]int{
		CatLocation: 1, CatPhoneIdentity: 3, CatUserIdentity: 2,
		CatUsagePattern: 2, CatContentProvider: 10,
	}
	for cat, n := range want {
		if counts[cat] != n {
			t.Fatalf("category %s has %d types, want %d", cat, counts[cat], n)
		}
	}
	// Every non-CP type must have a source API; every CP type a URI.
	apiTypes := map[DataType]bool{}
	for _, dt := range SourceAPIs {
		apiTypes[dt] = true
	}
	uriTypes := map[DataType]bool{}
	for _, dt := range ProviderURIs {
		uriTypes[dt] = true
	}
	for _, dt := range AllDataTypes {
		if CategoryOf[dt] == CatContentProvider {
			if !uriTypes[dt] {
				t.Fatalf("CP type %q has no provider URI", dt)
			}
		} else if !apiTypes[dt] {
			t.Fatalf("type %q has no source API", dt)
		}
	}
}

func TestProviderTypePrefixMatch(t *testing.T) {
	if dt, ok := ProviderType("content://sms/inbox"); !ok || dt != DTSMS {
		t.Fatalf("ProviderType(sms/inbox) = %v, %v", dt, ok)
	}
	if dt, ok := ProviderType("content://settings"); !ok || dt != DTSettings {
		t.Fatalf("ProviderType(settings) = %v, %v", dt, ok)
	}
	if _, ok := ProviderType("content://smsmsms"); ok {
		t.Fatal("ProviderType matched a non-prefix")
	}
	if _, ok := ProviderType("content://unknown"); ok {
		t.Fatal("ProviderType matched unknown URI")
	}
}

func TestPropertyStorageAccounting(t *testing.T) {
	// Random write/replace/delete/rename sequences keep Used() equal to
	// the sum of stored file sizes.
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := 1 + r.Intn(30)
			ops := make([]storageOp, n)
			for i := range ops {
				ops[i] = storageOp{
					kind: r.Intn(3),
					a:    r.Intn(6),
					b:    r.Intn(6),
					size: r.Intn(200),
				}
			}
			vals[0] = reflect.ValueOf(ops)
		},
	}
	prop := func(ops []storageOp) bool {
		d := NewDevice()
		st := d.Storage
		path := func(i int) string { return ExternalRoot + "f" + string(rune('a'+i)) }
		for _, op := range ops {
			switch op.kind {
			case 0:
				_ = st.WriteFile(path(op.a), make([]byte, op.size), "app", false)
			case 1:
				_ = st.Delete(path(op.a), "app")
			case 2:
				_ = st.Rename(path(op.a), path(op.b), "app", false)
			}
		}
		var want int64
		for _, p := range st.List(ExternalRoot) {
			_, size, err := st.Stat(p)
			if err != nil {
				return false
			}
			want += size
		}
		return st.Used() == want
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

type storageOp struct {
	kind, a, b, size int
}
