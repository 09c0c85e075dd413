# Concurrency-correctness tooling: sanitizer configurations, Clang
# thread-safety analysis, the lockdep build switch, and clang-tidy wiring.
# Included from the root CMakeLists; see DESIGN.md "Concurrency invariants"
# and tools/check.sh for the intended workflows.

include(CheckCXXCompilerFlag)

# ---------------------------------------------------------------------------
# PSME_SANITIZE=off|thread|address|undefined
#
# Applied globally (compile + link) so every target — library, tests,
# benches, examples — is instrumented consistently. GTest/benchmark come from
# system packages without instrumentation; that is fine for ASan/UBSan and
# acceptable for TSan because neither library synchronizes threads of its
# own on the paths our tests exercise.
# ---------------------------------------------------------------------------
set(PSME_SANITIZE "off" CACHE STRING
    "Sanitizer instrumentation: off, thread, address, or undefined")
set_property(CACHE PSME_SANITIZE PROPERTY STRINGS off thread address undefined)

if(NOT PSME_SANITIZE STREQUAL "off")
  if(PSME_SANITIZE STREQUAL "thread")
    set(_psme_san_flags -fsanitize=thread)
  elseif(PSME_SANITIZE STREQUAL "address")
    set(_psme_san_flags -fsanitize=address -fsanitize=leak)
  elseif(PSME_SANITIZE STREQUAL "undefined")
    # Non-recoverable so any UB diagnostic fails the test that triggered it.
    set(_psme_san_flags -fsanitize=undefined -fno-sanitize-recover=all)
  else()
    message(FATAL_ERROR "PSME_SANITIZE must be off, thread, address, or "
                        "undefined (got '${PSME_SANITIZE}')")
  endif()
  message(STATUS "psme: sanitizer build (${PSME_SANITIZE})")
  add_compile_options(${_psme_san_flags} -fno-omit-frame-pointer -g)
  add_link_options(${_psme_san_flags})
endif()

# ---------------------------------------------------------------------------
# PSME_LOCKDEP=ON forces the runtime lock-order checker into any build type
# (by default it is active only when NDEBUG is not defined — i.e. Debug).
# Sanitizer builds get it automatically: races and order violations are the
# same investigation.
# ---------------------------------------------------------------------------
option(PSME_LOCKDEP "Force-enable the spinlock lock-order checker" OFF)
if(PSME_LOCKDEP OR NOT PSME_SANITIZE STREQUAL "off")
  add_compile_definitions(PSME_LOCKDEP=1)
  message(STATUS "psme: lockdep checker forced on")
endif()

# ---------------------------------------------------------------------------
# PSME_NET_VERIFY=ON forces the engine's automatic network verification after
# every production add and removal into any build type (default: debug
# builds only, via !NDEBUG — see src/analysis/verify.h). Sanitizer builds get
# it automatically, like lockdep: a corrupted network and a race are the same
# investigation.
# ---------------------------------------------------------------------------
option(PSME_NET_VERIFY "Force-enable verify-after-add_production" OFF)
if(PSME_NET_VERIFY OR NOT PSME_SANITIZE STREQUAL "off")
  add_compile_definitions(PSME_NET_VERIFY=1)
  message(STATUS "psme: network verifier forced on after every add")
endif()

# ---------------------------------------------------------------------------
# Clang thread-safety analysis. GCC does not implement -Wthread-safety; the
# probe keeps GCC builds untouched while Clang builds enforce the
# PSME_GUARDED_BY / PSME_ACQUIRE annotations as errors.
# ---------------------------------------------------------------------------
check_cxx_compiler_flag(-Wthread-safety PSME_HAS_WTHREAD_SAFETY)
if(PSME_HAS_WTHREAD_SAFETY)
  add_compile_options(-Wthread-safety -Werror=thread-safety)
  message(STATUS "psme: -Wthread-safety enabled (errors)")
endif()

# ---------------------------------------------------------------------------
# PSME_CLANG_TIDY=ON runs clang-tidy (config: .clang-tidy at the repo root)
# over every psme source as part of compilation. tools/run-clang-tidy.sh is
# the out-of-build equivalent driven from compile_commands.json.
# ---------------------------------------------------------------------------
option(PSME_CLANG_TIDY "Run clang-tidy alongside compilation" OFF)
if(PSME_CLANG_TIDY)
  find_program(PSME_CLANG_TIDY_EXE NAMES clang-tidy)
  if(PSME_CLANG_TIDY_EXE)
    set(CMAKE_CXX_CLANG_TIDY ${PSME_CLANG_TIDY_EXE} --warnings-as-errors=*)
    message(STATUS "psme: clang-tidy enabled (${PSME_CLANG_TIDY_EXE})")
  else()
    message(WARNING "PSME_CLANG_TIDY=ON but no clang-tidy executable found; "
                    "continuing without it")
  endif()
endif()
