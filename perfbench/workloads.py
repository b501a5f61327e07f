"""The benchmark's workloads: fixed lists of `cubalg` CLI commands ("ops").

Every op records the exit status and the sha256 of the stdout that the CLI
gave for it when the benchmark was defined.  A run that reproduces either
one differently counts the op as failed.  Why each workload was chosen is
in README.md beside this file.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Op(NamedTuple):
    argv: Tuple[str, ...]
    exit_status: int
    stdout_sha256: str

    @property
    def label(self) -> str:
        return " ".join(self.argv)


WORKLOADS = {
    # Mod-2 polynomial products in the unbounded term kernel, then F_2
    # bitmask spans; no integer linear algebra.
    "steenrod": (
        Op(("steenrod", "verify", "--cutoff", "64"), 0,
           "ccfb4014e8abd878664df415eeafe3d6"
           "9bbf4fcbb752c50d855a900b222b57cb"),
        Op(("steenrod", "primitives", "--window", "1..32",
            "--cutoff", "32"), 0,
           "d8fe3eeb6be8ae5128af489b0e434c74"
           "696fd3bf5838323bb145e3c44a16b188"),
    ),
    # Smith normal form over Z (mostly from solve_integer), the F_3 path of
    # the same complexes, the dense d^2 = 0 check and integer_kernel.
    # Polynomial products stay under 5% of the time.
    "cobar": (
        Op(("hopf", "cobar", "--algebroid", "weierstrass", "--twists",
            "6..6", "--smax", "2", "--extended", "12"), 0,
           "0f35fbd1fcedff80c0f011d3795db369"
           "d604b656bf79ee18bfd887d88c48bec6"),
        Op(("hopf", "cobar", "--algebroid", "weierstrass", "--twists",
            "6..6", "--smax", "2", "--extended", "12", "--fp", "3"), 0,
           "dcd3c3029ee2b31f24def69b3f13be87"
           "edc4c2163c2eafd859acf1245572a0c0"),
        Op(("hopf", "cobar", "--algebroid", "weierstrass", "--twists",
            "0..8", "--smax", "2", "--fp", "3"), 0,
           "9221b75264378a526d9d689601b39f65"
           "7cf13ec2d6d111675c327b27b4c6bab1"),
        Op(("hopf", "h0", "--algebroid", "weierstrass",
            "--twists=-12..12"), 0,
           "cdd162ad7206ffe41ccc888456ae5dba"
           "10703580e86d6e284fc4f180bad792ba"),
    ),
    # Truncated series over Z: the bounded term kernel with growing integer
    # coefficients, and F_3 row reduction in the regular-sequence check.
    "fgl": (
        Op(("curve", "nseries", "--n", "3", "--order", "10"), 0,
           "73d4a51a461af57a22ef9f75136e1c3d"
           "ebb7a827a38bb883df29980f1b80a012"),
        Op(("curve", "hasse", "--prime", "3", "--imax", "2"), 0,
           "34ecf9879367ebc214cea245a13cd4f1"
           "4764c554cdfe39eebd9dec02c1f9ac0f"),
        Op(("curve", "landweber", "--prime", "3", "--cutoff", "48"), 0,
           "ea195d97f19fac8e26090306572839b6"
           "a2ea7d7b86f10def548b131682031ef2"),
    ),
}
