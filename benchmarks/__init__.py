"""Benchmark harness: the service soaks and the end-to-end benchmark.

``bench_e15``/``e18``/``e19``/``e20`` soak the KMS, the chaos fleet, custody
relay and the metro service; each module's docstring states what it asserts.
The repo's end-to-end benchmark, E21, and its baseline are described in
``benchmarks/e21/README.md``.  Run with::

    pytest benchmarks/ --benchmark-only

The paper's quantitative claims are rows of ``tests/test_paper_claims.py``,
named by the experiment that used to check them here:

* ``bench_e1_qber_operating_point.py``   -> the ``E1:`` rows
* ``bench_e2_sifting_yield.py``          -> ``E2:``
* ``bench_e3_cascade_leakage.py``        -> ``E3:``
* ``bench_e4_defense_functions.py``      -> ``E4:``
* ``bench_e5_key_throughput.py``         -> ``E5:``
* ``bench_e6_ipsec_key_consumption.py``  -> ``E6:``
* ``bench_e7_ike_transcript.py``         -> ``E7:``
* ``bench_e8_relay_mesh.py``             -> ``E8:``
* ``bench_e9_untrusted_switches.py``     -> ``E9:``
* ``bench_e10_eavesdropping.py``         -> ``E10:``
* ``bench_e11_authentication_pool.py``   -> ``E11:``
* ``bench_e12_sift_encoding.py``         -> ``E12:``
* ``bench_a1_cascade_ablation.py``       -> ``A1:``
* ``bench_a2_entangled_link.py``         -> ``A2:``

Select one experiment's rows with ``pytest tests/test_paper_claims.py -k "E10:"``.
"""
