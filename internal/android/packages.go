package android

import (
	"fmt"
	"sort"
	"sync"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/dex"
)

// InstalledApp is one installed package.
type InstalledApp struct {
	Package string
	APK     *apk.APK
	DataDir string // /data/data/<pkg>/
	APKPath string // /data/app/<pkg>.apk
	// Decoded, when non-nil, is the pre-decoded form of APK.Dex supplied
	// by the installer's caller (the dexopt analogue): the VM boots from
	// it instead of decoding the bytecode again. It must match APK.Dex.
	Decoded *dex.File
}

// HasExternalWrite reports whether the app declares
// WRITE_EXTERNAL_STORAGE.
func (a *InstalledApp) HasExternalWrite() bool {
	return a.APK.Manifest.HasPermission(apk.WriteExternalStorage)
}

// PackageManager tracks installed applications.
type PackageManager struct {
	dev  *Device
	mu   sync.Mutex
	apps map[string]*InstalledApp
}

func newPackageManager(dev *Device) *PackageManager {
	return &PackageManager{dev: dev, apps: make(map[string]*InstalledApp)}
}

// Install registers the app, creates its data directory marker, copies the
// APK under /data/app/, and extracts native libraries into the app's
// private lib directory (as the real installer does), which is where
// loadLibrary() finds them.
func (pm *PackageManager) Install(a *apk.APK) (*InstalledApp, error) {
	return pm.InstallArchive(a, nil)
}

// InstallArchive is Install for callers that already hold the serialized
// form of a (the `adb install file.apk` analogue): the provided archive
// is stored under /data/app/ verbatim instead of re-encoding the package.
// archive must be the serialization of a; nil falls back to building it.
func (pm *PackageManager) InstallArchive(a *apk.APK, archive []byte) (*InstalledApp, error) {
	if err := a.Manifest.Validate(); err != nil {
		return nil, fmt.Errorf("android: install: %w", err)
	}
	pkg := a.Manifest.Package
	pm.mu.Lock()
	if _, exists := pm.apps[pkg]; exists {
		pm.mu.Unlock()
		return nil, fmt.Errorf("android: install: package %s already installed", pkg)
	}
	pm.mu.Unlock()

	app := &InstalledApp{
		Package: pkg,
		APK:     a,
		DataDir: InternalDir(pkg),
		APKPath: AppRoot + pkg + ".apk",
	}
	apkBytes := archive
	if apkBytes == nil {
		var err error
		apkBytes, err = apk.Build(a)
		if err != nil {
			return nil, fmt.Errorf("android: install %s: %w", pkg, err)
		}
	}
	st := pm.dev.Storage
	if err := st.WriteFile(app.APKPath, apkBytes, SystemOwner, false); err != nil {
		return nil, fmt.Errorf("android: install %s: %w", pkg, err)
	}
	if a.Dex != nil {
		// The installer keeps classes.dex accessible for the runtime.
		if err := st.WriteFile(app.DataDir+"base/classes.dex", a.Dex, SystemOwner, false); err != nil {
			return nil, fmt.Errorf("android: install %s: %w", pkg, err)
		}
	}
	// Extract in name order, so a quota failure always names the same file.
	for _, name := range sortedKeys(a.NativeLibs) {
		if err := st.WriteFile(app.DataDir+"lib/"+name, a.NativeLibs[name], SystemOwner, false); err != nil {
			return nil, fmt.Errorf("android: install %s: %w", pkg, err)
		}
	}
	for _, name := range sortedKeys(a.Assets) {
		if err := st.WriteFile(app.DataDir+"assets/"+name, a.Assets[name], SystemOwner, false); err != nil {
			return nil, fmt.Errorf("android: install %s: %w", pkg, err)
		}
	}
	// Transfer ownership of the data dir contents to the app.
	pm.chownDir(app.DataDir, pkg)

	pm.mu.Lock()
	pm.apps[pkg] = app
	pm.mu.Unlock()
	return app, nil
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (pm *PackageManager) chownDir(prefix, owner string) {
	st := pm.dev.Storage
	st.mu.Lock()
	defer st.mu.Unlock()
	for p, f := range st.files {
		if len(p) >= len(prefix) && p[:len(prefix)] == prefix {
			f.Owner = owner
		}
	}
}

// Uninstall removes the app and its data.
func (pm *PackageManager) Uninstall(pkg string) error {
	pm.mu.Lock()
	app, ok := pm.apps[pkg]
	if !ok {
		pm.mu.Unlock()
		return fmt.Errorf("android: uninstall: %s not installed", pkg)
	}
	delete(pm.apps, pkg)
	pm.mu.Unlock()
	pm.dev.Storage.RemovePrefix(app.DataDir)
	_ = pm.dev.Storage.Delete(app.APKPath, SystemOwner)
	return nil
}

// Get returns the installed app, or nil.
func (pm *PackageManager) Get(pkg string) *InstalledApp {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.apps[pkg]
}

// InstalledPackages lists installed package names, sorted — the
// usage-pattern privacy source of Table X.
func (pm *PackageManager) InstalledPackages() []string {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	out := make([]string, 0, len(pm.apps))
	for pkg := range pm.apps {
		out = append(out, pkg)
	}
	sort.Strings(out)
	return out
}
