#include "profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <elf.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>

namespace perfbench {

namespace {

// The handler may only touch lock-free atomics and the preallocated buffer.
std::atomic<uintptr_t*> g_buffer{nullptr};
std::atomic<size_t> g_capacity{0};
std::atomic<size_t> g_count{0};
struct sigaction g_previous_action;

uintptr_t ProgramCounter(void* context) {
#if defined(__x86_64__)
  return static_cast<uintptr_t>(
      static_cast<ucontext_t*>(context)->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<uintptr_t>(
      static_cast<ucontext_t*>(context)->uc_mcontext.pc);
#else
  (void)context;
  return 0;
#endif
}

void OnProfSignal(int /*signo*/, siginfo_t* /*info*/, void* context) {
  const uintptr_t pc = ProgramCounter(context);
  if (pc == 0) return;
  const size_t i = g_count.load(std::memory_order_relaxed);
  if (i < g_capacity.load(std::memory_order_relaxed)) {
    g_buffer.load(std::memory_order_relaxed)[i] = pc;
    g_count.store(i + 1, std::memory_order_relaxed);
  }
}

void SetTimer(int period_us) {
  itimerval timer{};
  timer.it_interval.tv_sec = period_us / 1000000;
  timer.it_interval.tv_usec = period_us % 1000000;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

struct Symbol {
  uintptr_t start = 0;
  uintptr_t end = 0;
  const char* name = nullptr;  // points into the symbol table copy
};

// Function symbols of the running executable, from its ELF .symtab (the
// dynamic table lacks internal-linkage functions), sorted by address.
// Returns false when the file is not a well-formed 64-bit ELF.
bool ReadFunctionSymbols(std::vector<char>* image, std::vector<Symbol>* out) {
  std::ifstream file("/proc/self/exe", std::ios::binary);
  image->assign(std::istreambuf_iterator<char>(file),
                std::istreambuf_iterator<char>());
  const size_t size = image->size();
  const char* data = image->data();
  Elf64_Ehdr header;
  if (size < sizeof(header)) return false;
  std::memcpy(&header, data, sizeof(header));
  if (std::memcmp(header.e_ident, ELFMAG, SELFMAG) != 0 ||
      header.e_ident[EI_CLASS] != ELFCLASS64 ||
      header.e_shentsize != sizeof(Elf64_Shdr) || header.e_shoff > size ||
      header.e_shnum > (size - header.e_shoff) / sizeof(Elf64_Shdr)) {
    return false;
  }
  auto section = [&](size_t index) {
    Elf64_Shdr shdr;
    std::memcpy(&shdr, data + header.e_shoff + index * sizeof(Elf64_Shdr),
                sizeof(shdr));
    return shdr;
  };
  auto in_file = [size](const Elf64_Shdr& s) {
    return s.sh_offset <= size && s.sh_size <= size - s.sh_offset;
  };
  for (size_t i = 0; i < header.e_shnum; ++i) {
    const Elf64_Shdr symtab = section(i);
    if (symtab.sh_type != SHT_SYMTAB || symtab.sh_link >= header.e_shnum) {
      continue;
    }
    const Elf64_Shdr strtab = section(symtab.sh_link);
    if (!in_file(symtab) || !in_file(strtab) || strtab.sh_size == 0 ||
        data[strtab.sh_offset + strtab.sh_size - 1] != '\0') {
      return false;
    }
    const size_t count = symtab.sh_size / sizeof(Elf64_Sym);
    for (size_t k = 0; k < count; ++k) {
      Elf64_Sym sym;
      std::memcpy(&sym, data + symtab.sh_offset + k * sizeof(Elf64_Sym),
                  sizeof(sym));
      if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_value == 0 ||
          sym.st_name >= strtab.sh_size) {
        continue;
      }
      out->push_back({static_cast<uintptr_t>(sym.st_value),
                      static_cast<uintptr_t>(sym.st_value + sym.st_size),
                      data + strtab.sh_offset + sym.st_name});
    }
  }
  std::sort(out->begin(), out->end(),
            [](const Symbol& a, const Symbol& b) { return a.start < b.start; });
  return true;
}

// Load address of the main executable (non-zero for PIE builds).
uintptr_t ExecutableBias() {
  uintptr_t bias = 0;
  dl_iterate_phdr(
      [](dl_phdr_info* info, size_t, void* out) {
        *static_cast<uintptr_t*>(out) = info->dlpi_addr;
        return 1;  // the first object reported is the executable
      },
      &bias);
  return bias;
}

std::string Demangle(const char* name) {
  int status = 0;
  char* demangled = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  if (status != 0 || demangled == nullptr) return name;
  std::string result(demangled);
  std::free(demangled);
  return result;
}

bool IsAllocatorSymbol(const char* name) {
  return name != nullptr &&
         (std::strstr(name, "malloc") != nullptr ||
          std::strstr(name, "free") != nullptr ||
          std::strstr(name, "calloc") != nullptr ||
          std::strstr(name, "realloc") != nullptr ||
          std::strstr(name, "memalign") != nullptr);
}

// Maps a demangled function name to its layer.
std::string LayerOfSymbol(const std::string& demangled) {
  if (demangled.rfind("operator new", 0) == 0 ||
      demangled.rfind("operator delete", 0) == 0) {
    return "alloc";
  }
  // The last alc namespace before the parameter list: for an event-cell
  // trampoline or a container instantiated over a layer's type, that is the
  // layer whose code runs, not the template's own namespace.
  const std::string head = demangled.substr(0, demangled.find('('));
  if (head.find("perfbench::") != std::string::npos) return "harness";
  const size_t at = head.rfind("alc::");
  if (at == std::string::npos) return "other";
  const size_t begin = at + 5;
  const std::string ns = head.substr(begin, head.find("::", begin) - begin);
  static const char* const kLayers[][2] = {
      {"sim", "engine"},         {"db", "db"},
      {"control", "control"},    {"cluster", "cluster"},
      {"placement", "placement"}, {"workload", "workload"},
      {"elasticity", "elasticity"}, {"fault", "fault"},
      {"telemetry", "telemetry"},
  };
  for (const auto& layer : kLayers) {
    if (ns == layer[0]) return layer[1];
  }
  return "other";  // core, util: spec parsing and run assembly
}

}  // namespace

LayerProfiler::LayerProfiler(size_t capacity) : pcs_(capacity, 0) {
  g_buffer.store(pcs_.data(), std::memory_order_relaxed);
  g_capacity.store(pcs_.size(), std::memory_order_relaxed);
  g_count.store(0, std::memory_order_relaxed);
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = OnProfSignal;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, &g_previous_action);
}

LayerProfiler::~LayerProfiler() {
  Stop();
  sigaction(SIGPROF, &g_previous_action, nullptr);
  g_capacity.store(0, std::memory_order_relaxed);
  g_buffer.store(nullptr, std::memory_order_relaxed);
}

void LayerProfiler::Start(int period_us) {
  running_ = true;
  SetTimer(period_us);
}

void LayerProfiler::Stop() {
  if (!running_) return;
  SetTimer(0);
  running_ = false;
}

uint64_t LayerProfiler::samples() const {
  return g_count.load(std::memory_order_relaxed);
}

std::map<std::string, uint64_t> LayerProfiler::Layers() const {
  std::vector<char> image;
  std::vector<Symbol> symbols;
  const bool have_symbols = ReadFunctionSymbols(&image, &symbols);
  const uintptr_t bias = ExecutableBias();

  std::vector<uintptr_t> pcs(pcs_.begin(), pcs_.begin() + samples());
  std::sort(pcs.begin(), pcs.end());
  std::map<std::string, uint64_t> layers;
  for (size_t i = 0; i < pcs.size();) {
    size_t j = i;
    while (j < pcs.size() && pcs[j] == pcs[i]) ++j;
    const uintptr_t address = pcs[i] - bias;
    std::string layer = "other";
    const auto it = std::upper_bound(
        symbols.begin(), symbols.end(), address,
        [](uintptr_t a, const Symbol& s) { return a < s.start; });
    if (have_symbols && it != symbols.begin() &&
        address < std::max(std::prev(it)->end, std::prev(it)->start + 1)) {
      layer = LayerOfSymbol(Demangle(std::prev(it)->name));
    } else {
      // Outside the executable: a shared library (libc, libstdc++, libm).
      Dl_info info;
      if (dladdr(reinterpret_cast<void*>(pcs[i]), &info) != 0 &&
          IsAllocatorSymbol(info.dli_sname)) {
        layer = "alloc";
      }
    }
    layers[layer] += j - i;
    i = j;
  }
  return layers;
}

}  // namespace perfbench
