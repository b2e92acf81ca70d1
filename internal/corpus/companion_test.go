package corpus

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/apk"
)

// TestSetupDeviceBuildsNoArchive pins the build-once contract: the store
// builds its companion archives at generation, and provisioning a device
// only copies them and starts the chat apps.
func TestSetupDeviceBuildsNoArchive(t *testing.T) {
	st := genStore(t, 0.0005)
	before := apk.BuildCalls()
	for i := 0; i < 50; i++ {
		dev := android.NewDevice()
		if err := st.SetupDevice(dev); err != nil {
			t.Fatal(err)
		}
		if got := dev.Packages.InstalledPackages(); len(got) != len(st.companions) {
			t.Fatalf("device %d has %v installed, want the %d companions", i, got, len(st.companions))
		}
		for _, pkg := range []string{QQPackage, WeChatPackage} {
			if dev.FindProcessByPackage(pkg) == nil {
				t.Fatalf("device %d: %s not running", i, pkg)
			}
		}
	}
	if builds := apk.BuildCalls() - before; builds != 0 {
		t.Fatalf("SetupDevice on 50 devices ran apk.Build %d times, want 0", builds)
	}
}

// TestSetupDeviceIsolation runs provisioning concurrently from one store
// (meaningful under -race): each device then scribbles over, overwrites
// and deletes one companion's files. No other device, and not the store's
// shared companions, may see it.
func TestSetupDeviceIsolation(t *testing.T) {
	st := genStore(t, 0.0005)
	pristine, err := buildCompanions()
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	devs := make([]*android.Device, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range devs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dev := android.NewDevice()
			devs[i] = dev
			if errs[i] = st.SetupDevice(dev); errs[i] != nil {
				return
			}
			a := st.companions[i%len(st.companions)].apk
			app := dev.Packages.Get(a.Manifest.Package)
			paths := []string{app.APKPath}
			for name := range a.NativeLibs {
				paths = append(paths, app.DataDir+"lib/"+name)
			}
			if a.Dex != nil {
				paths = append(paths, app.DataDir+"base/classes.dex")
			}
			for _, p := range paths {
				data, err := dev.Storage.ReadFile(p)
				if err != nil {
					errs[i] = err
					return
				}
				for j := range data {
					data[j] = byte(i)
				}
				if errs[i] = dev.Storage.WriteFile(p, data, android.SystemOwner, false); errs[i] != nil {
					return
				}
				if errs[i] = dev.Storage.Delete(p, android.SystemOwner); errs[i] != nil {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
	}
	for i, dev := range devs {
		for k, c := range st.companions {
			if k == i%len(st.companions) {
				if dev.Storage.Exists(dev.Packages.Get(c.apk.Manifest.Package).APKPath) {
					t.Fatalf("device %d: deleted %s archive still present", i, c.apk.Manifest.Package)
				}
				continue
			}
			requireCompanionInstalled(t, dev, c.apk)
		}
	}
	for k, c := range st.companions {
		if !reflect.DeepEqual(c.apk, pristine[k].apk) || !bytes.Equal(c.archive, pristine[k].archive) {
			t.Fatalf("shared companion %s was mutated", c.apk.Manifest.Package)
		}
	}
	fresh := android.NewDevice()
	if err := st.SetupDevice(fresh); err != nil {
		t.Fatal(err)
	}
	for _, c := range st.companions {
		requireCompanionInstalled(t, fresh, c.apk)
	}
}

// requireCompanionInstalled asserts that dev holds a's archive exactly as
// apk.Build renders it, plus its extracted libraries and bytecode.
func requireCompanionInstalled(t *testing.T, dev *android.Device, a *apk.APK) {
	t.Helper()
	pkg := a.Manifest.Package
	app := dev.Packages.Get(pkg)
	if app == nil {
		t.Fatalf("%s not installed", pkg)
	}
	want, err := apk.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	requireFile(t, dev, app.APKPath, want)
	for name, lib := range a.NativeLibs {
		requireFile(t, dev, app.DataDir+"lib/"+name, lib)
	}
	if a.Dex != nil {
		requireFile(t, dev, app.DataDir+"base/classes.dex", a.Dex)
	}
}

func requireFile(t *testing.T, dev *android.Device, path string, want []byte) {
	t.Helper()
	got, err := dev.Storage.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes differ from the %d expected", path, len(got), len(want))
	}
}
