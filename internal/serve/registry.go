// Package serve is the fleet-serving layer: one server process scoring
// many concurrent device streams against a registry of named, versioned
// detectors, each session's samples extending its own incremental stream
// in one flush per tick shared by the sessions of a model. It is the
// production shape of the paper's deployment story —
// many light detectors close to the production line, sharing one compute
// substrate instead of one process per device.
package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"varade/internal/baselines/ae"
	"varade/internal/baselines/arlstm"
	"varade/internal/baselines/gbrf"
	"varade/internal/baselines/iforest"
	"varade/internal/baselines/knn"
	"varade/internal/core"
	"varade/internal/detect"
	"varade/internal/modelio"
)

// modelExt is the registry file extension.
const modelExt = ".vmf"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// fileSaver is satisfied by every persistable detector (VARADE and all
// five baselines write the self-describing container format).
type fileSaver interface {
	Save(path string) error
}

// Registry stores named, versioned detectors on disk, one container file
// per version: <dir>/<name>@v<version>.vmf. Registering a name again
// appends the next version; loads default to the latest. Because each
// file carries its config header, a registry entry is loadable with no
// architecture flags.
type Registry struct {
	dir string

	mu       sync.Mutex
	versions map[string][]int // sorted ascending
}

// ModelInfo describes one registry entry.
type ModelInfo struct {
	Name     string
	Versions []int
	Kind     string // detector kind of the latest version
}

// OpenRegistry opens (creating if needed) a registry rooted at dir and
// indexes the model files already present.
func OpenRegistry(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &Registry{dir: dir, versions: make(map[string][]int)}
	if err := r.Rescan(); err != nil {
		return nil, err
	}
	return r, nil
}

// Dir returns the registry root.
func (r *Registry) Dir() string { return r.dir }

// Rescan re-indexes the registry directory, picking up versions written
// by other processes — e.g. `varade-serve -import` run against a live
// server's registry — so a subsequent Resolve or Reload sees them. The
// directory read happens under the registry lock: a concurrent
// in-process Register must not land between the scan and the index swap
// (its version would vanish from the index and the next Register would
// reuse — and overwrite — its file). Rescan is a rare operator action
// (Reload), so briefly stalling handshake Resolves is acceptable here,
// unlike in List.
func (r *Registry) Rescan() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return err
	}
	versions := make(map[string][]int)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), modelExt) {
			continue
		}
		name, v, ok := parseEntry(strings.TrimSuffix(e.Name(), modelExt))
		if !ok {
			continue
		}
		versions[name] = append(versions[name], v)
	}
	for name := range versions {
		sort.Ints(versions[name])
	}
	r.versions = versions
	return nil
}

// parseEntry splits "name@v3" into ("name", 3).
func parseEntry(stem string) (string, int, bool) {
	i := strings.LastIndex(stem, "@v")
	if i <= 0 {
		return "", 0, false
	}
	v, err := strconv.Atoi(stem[i+2:])
	if err != nil || v <= 0 || !nameRE.MatchString(stem[:i]) {
		return "", 0, false
	}
	return stem[:i], v, true
}

// Register persists d under name as the next version and returns the
// assigned version number.
func (r *Registry) Register(name string, d detect.Detector) (int, error) {
	if !nameRE.MatchString(name) {
		return 0, fmt.Errorf("serve: invalid model name %q", name)
	}
	s, ok := d.(fileSaver)
	if !ok {
		return 0, fmt.Errorf("serve: detector %q is not persistable", d.Name())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := 1
	if vs := r.versions[name]; len(vs) > 0 {
		v = vs[len(vs)-1] + 1
	}
	path := r.path(name, v)
	if err := s.Save(path); err != nil {
		// Remove the partial file: a future OpenRegistry must not index
		// a truncated write as the latest version.
		os.Remove(path)
		return 0, err
	}
	r.versions[name] = append(r.versions[name], v)
	return v, nil
}

func (r *Registry) path(name string, version int) string {
	return filepath.Join(r.dir, fmt.Sprintf("%s@v%d%s", name, version, modelExt))
}

// Resolve returns the file path and concrete version for a model
// reference; version <= 0 selects the latest.
func (r *Registry) Resolve(name string, version int) (string, int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	vs := r.versions[name]
	if len(vs) == 0 {
		return "", 0, fmt.Errorf("serve: model %q not in registry %s", name, r.dir)
	}
	if version <= 0 {
		version = vs[len(vs)-1]
	} else {
		i := sort.SearchInts(vs, version)
		if i >= len(vs) || vs[i] != version {
			return "", 0, fmt.Errorf("serve: model %q has no version %d (have %v)", name, version, vs)
		}
	}
	return r.path(name, version), version, nil
}

// Load reconstructs a registered detector; version <= 0 loads the
// latest. The returned version is the one actually loaded.
func (r *Registry) Load(name string, version int) (detect.Detector, int, error) {
	path, v, err := r.Resolve(name, version)
	if err != nil {
		return nil, 0, err
	}
	d, err := LoadDetector(path)
	if err != nil {
		return nil, 0, err
	}
	return d, v, nil
}

// List returns every registry entry, sorted by name. The per-entry kind
// sniff does disk I/O, so it runs on a snapshot taken under the lock —
// listing must not stall concurrent Resolve calls from session
// handshakes.
func (r *Registry) List() []ModelInfo {
	r.mu.Lock()
	out := make([]ModelInfo, 0, len(r.versions))
	for name, vs := range r.versions {
		out = append(out, ModelInfo{Name: name, Versions: append([]int(nil), vs...)})
	}
	r.mu.Unlock()
	for i := range out {
		vs := out[i].Versions
		out[i].Kind, _ = modelio.SniffKind(r.path(out[i].Name, vs[len(vs)-1]))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Import copies an existing container file into the registry under name
// as the next version, validating that the file parses.
func (r *Registry) Import(path, name string) (int, error) {
	d, err := LoadDetector(path)
	if err != nil {
		return 0, err
	}
	return r.Register(name, d)
}

// LoadDetector reads any container file and reconstructs the detector it
// holds, dispatching on the kind recorded in the header.
func LoadDetector(path string) (detect.Detector, error) {
	kind, err := modelio.SniffKind(path)
	if err != nil {
		return nil, err
	}
	switch kind {
	case modelio.KindVARADE:
		return core.LoadModel(path)
	case modelio.KindAE:
		return ae.LoadModel(path)
	case modelio.KindARLSTM:
		return arlstm.LoadModel(path)
	case modelio.KindGBRF:
		return gbrf.LoadModel(path)
	case modelio.KindIForest:
		return iforest.LoadModel(path)
	case modelio.KindKNN:
		return knn.LoadModel(path)
	case "":
		return nil, fmt.Errorf("serve: %s is a bare weights file; the registry needs the self-describing format (retrain or re-save with a current Model.Save)", path)
	default:
		return nil, fmt.Errorf("serve: %s holds unknown detector kind %q", path, kind)
	}
}

// ParseModelRef splits "name", "name@v3" or "name@latest" into (name,
// version), with version 0 meaning latest: "name" and "name@latest" are
// equivalent floating references that track registry updates (and hot
// swaps); "name@vN" pins.
func ParseModelRef(ref string) (string, int, error) {
	if i := strings.LastIndex(ref, "@"); i > 0 {
		name, suffix := ref[:i], ref[i+1:]
		if !nameRE.MatchString(name) {
			return "", 0, fmt.Errorf("serve: bad model reference %q", ref)
		}
		if suffix == "latest" {
			return name, 0, nil
		}
		if strings.HasPrefix(suffix, "v") {
			v, err := strconv.Atoi(suffix[1:])
			if err == nil && v > 0 {
				return name, v, nil
			}
		}
		return "", 0, fmt.Errorf("serve: bad model reference %q", ref)
	}
	if !nameRE.MatchString(ref) {
		return "", 0, fmt.Errorf("serve: bad model reference %q", ref)
	}
	return ref, 0, nil
}
