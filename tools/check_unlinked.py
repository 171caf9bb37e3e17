#!/usr/bin/env python3
"""CI gate: every liblnc function must be linked by some binary.

Usage: check_unlinked.py BUILD_DIR

BUILD_DIR is a build of this repository compiled at -O0 with
-ffunction-sections -fdata-sections and linked with -Wl,--gc-sections:

    cmake -B build-gc -S . -DCMAKE_BUILD_TYPE=None \\
        "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections" \\
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake --build build-gc -j
    python3 tools/check_unlinked.py build-gc

At -O0 nothing is inlined, so every out-of-line function of liblnc.a is a
text symbol (nm type T or t) in its own section, and the linker keeps it
in a binary only when that binary reaches it. The gate compares those
symbols, by mangled name, with the text symbols of every executable in
BUILD_DIR (tools, bench binaries, examples and tests). It prints the
library's count, each symbol no binary links (demangled) and how many only
test binaries (*_test) link, and exits 1 when any symbol is unlinked.
Header-only code is not covered: it has no symbol in the library.
"""
import os
import subprocess
import sys

LIBRARY_TYPES = {"T", "t"}
# What a binary may hold a library function as: weak (W, w) once a
# template or inline copy of the same name wins the link.
BINARY_TYPES = {"T", "t", "W", "w"}


def text_symbols(path, types):
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    symbols = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in types:
            symbols.add(fields[2])
    return symbols


def executables(build_dir):
    for root, dirs, files in os.walk(build_dir):
        dirs[:] = [d for d in dirs if d != "CMakeFiles"]
        for name in sorted(files):
            path = os.path.join(root, name)
            if not os.access(path, os.X_OK):
                continue
            with open(path, "rb") as f:
                if f.read(4) == b"\x7fELF":
                    yield path


def demangle(symbols):
    out = subprocess.run(["c++filt"], input="\n".join(symbols), check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()


def main(argv):
    if len(argv) != 2:
        raise SystemExit("usage: check_unlinked.py BUILD_DIR")
    build_dir = argv[1]
    library = text_symbols(os.path.join(build_dir, "liblnc.a"),
                           LIBRARY_TYPES)
    by_tools = set()
    by_tests = set()
    binaries = 0
    for path in executables(build_dir):
        binaries += 1
        linked = text_symbols(path, BINARY_TYPES) & library
        if os.path.basename(path).endswith("_test"):
            by_tests |= linked
        else:
            by_tools |= linked
    if binaries == 0:
        raise SystemExit(f"{build_dir}: no executable found")
    unlinked = sorted(library - by_tools - by_tests)
    print(f"liblnc.a: {len(library)} text symbols, {binaries} binaries")
    print(f"linked by no binary: {len(unlinked)}")
    if unlinked:
        for name in sorted(demangle(unlinked)):
            print(f"  {name}")
    print(f"reached only by tests: {len(by_tests - by_tools)}")
    return 1 if unlinked else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
