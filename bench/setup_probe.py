"""Benchmark input, and the set-up probe that times making it in a fresh interpreter.

write_input generates a phantom with atseg.synth.generate and writes it as a
lossless raw float64 grid (the GF64 format `atseg segment` reads alongside
PGM); the ground truth stays with the benchmark.  An 8-bit PGM would quantize
the phantom, and the quantized noisy phantom takes 186 outer iterations on
noisy-default instead of the 75 the unquantized one takes.

Run as a script, it imports the CLI (and with it numpy and scipy), writes the
input, reads it back and exits; run.py times whole runs of it to report
setup_s.

Usage: python3 bench/setup_probe.py OUT.f64 KIND SIGMA SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from atseg import cli, imgio, synth  # noqa: E402,F401  (cli: the import a command pays for)


def write_input(path: Path, kind: str, sigma: float, seed: int):
    """Write the 128x128 phantom to path; returns its analytic edge description."""
    spec = synth.PhantomSpec(kind=synth.PhantomKind(kind), noise_sigma=sigma, seed=seed)
    g, truth = synth.generate(spec)
    path.write_bytes(imgio.write_f64(g))
    return truth


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    write_input(out, argv[1], float(argv[2]), int(argv[3]))
    imgio.read_f64(out.read_bytes())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
