"""The layers the traced run measures, and what each should move end to end.

Each group names the library functions it wraps, as fnmatch patterns over
`<module>.<function>` or `<module>.<Class>.<method>` inside the `jetforge`
package.  A group's metrics are `<group>.calls`, `<group>.self_s` and, where
a size function is given, `<group>.term_pairs`.  `heavy` lists the
workloads on which the group is expected to do work; the traced run names
every wrapped function that recorded no call on such a workload.

The `moves` column is the prediction written before any optimisation: which
end-to-end metric, on which workload, a change in this layer should move.
"""


def series_pairs(a, b):
    """Term pairs a truncated-series product visits (len x len)."""
    return len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)


def poly_pairs(a, b):
    """Term pairs a polynomial product visits (len x len)."""
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


RATFUNC_ARITH = ["ratfunc.RationalFunction." + name for name in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__neg__")]

# group -> (wrapped function patterns, term-pair size function or None)
GROUPS = {
    "series.mul": (["series.TruncatedSeries.__mul__",
                    "series.TruncatedSeries.__rmul__"], series_pairs),
    "series.invert_unit": (["series.TruncatedSeries.invert_unit"], None),
    "series.derive": (["series.TruncatedSeries.derive"], None),
    "series.compose": (["series.series_compose"], None),
    "poly.mul": (["poly.Polynomial.__mul__", "poly.Polynomial.__rmul__"],
                 poly_pairs),
    "poly.derivative": (["poly.Polynomial.derivative"], None),
    "ratfunc.arith": (RATFUNC_ARITH, None),
    "ratfunc.derivative": (["ratfunc.RationalFunction.derivative"], None),
    "ratfunc.eval_on_jet": (["ratfunc.RationalFunction.eval_on_jet"], None),
    "ratfunc.evaluate": (["ratfunc.RationalFunction.evaluate"], None),
    "linalg.mat_mul": (["linalg.mat_mul"], None),
    "linalg.det": (["linalg.det"], None),
    "linalg.solve": (["linalg.solve"], None),
    "connection.build_xi": (["connection.build_xi"], None),
    "connection.beta": (["connection.beta"], None),
    "connection.series_oracle": (["connection.series_oracle"], None),
    "connection.check_flatness": (["connection.check_flatness"], None),
    "connection.check_right_equivariance":
        (["connection.check_right_equivariance"], None),
    "connection.invert_series_matrix":
        (["connection.invert_series_matrix"], None),
    "flags.alpha": (["flags.alpha"], None),
    "flags.flag_of_matrix": (["flags.flag_of_matrix"], None),
    "flags.check_hr1": (["flags.check_hr1"], None),
    "congruence.solve_congruence": (["congruence.solve_congruence"], None),
    "scheme.jet_space_equations": (["scheme.jet_space_equations"], None),
    "scheme.jet_space_equations_universal":
        (["scheme.jet_space_equations_universal"], None),
    "scheme.jet_prolong": (["scheme.jet_prolong"], None),
    "scheme.jet_prolong_universal": (["scheme.jet_prolong_universal"], None),
    "scheme.dimension_witness": (["scheme.dimension_witness"], None),
    "verify.case_gen": (["verify.random_flat_chart", "verify.random_n1_chart",
                         "verify.random_jet", "verify.random_invertible"],
                        None),
    "io.parse": (["io.*_from_json", "io.*_from_str"], None),
    "io.dump": (["io.*_to_json", "io.*_to_str", "io.canonical_dumps"], None),
    "cli.run": (["cli.run"], None),
}

# layer -> (workloads where it works hard, workloads where it is light or
# idle, the end-to-end metrics a change in it should move)
LAYERS = {
    "series": (["corpus", "jetspace"], ["legendre"],
               "req_ms_p50 on corpus; req_per_s on jetspace"),
    "poly": (["jetspace"], ["corpus"],
             "req_per_s and req_ms_p90 on jetspace"),
    "ratfunc": (["legendre"], ["jetspace"], "req_per_s on legendre"),
    "linalg": (["corpus"], ["legendre"], "req_ms_p50 on corpus"),
    "connection": (["legendre", "corpus"], ["jetspace"],
                   "build_xi: req_per_s and req_ms_p90 on legendre, req_per_s "
                   "on corpus, and peak_rss_mb on legendre if cached; the "
                   "others: req_ms_p50 on corpus"),
    "flags": (["legendre"], ["corpus", "jetspace"], "req_ms_p50 on legendre"),
    "congruence": (["legendre"], ["corpus", "jetspace"],
                   "req_ms_p50 on legendre"),
    "scheme": (["jetspace"], ["corpus", "legendre"], "req_per_s on jetspace"),
    "verify": (["corpus"], ["legendre"], "req_ms_p50 on corpus"),
    "io": (["legendre"], ["corpus", "jetspace"], "req_ms_p50 on legendre"),
    "cli": (["legendre"], ["corpus", "jetspace"], "req_ms_p50 on legendre"),
}

# Counts that must repeat exactly across two traced runs with one seed.
DETERMINISTIC_SUFFIXES = (".calls", ".term_pairs", ".den_deg_max",
                          "coeff.bits_max")
