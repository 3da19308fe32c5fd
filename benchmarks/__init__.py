"""The repo's end-to-end benchmark, E21, and where the retired benches went.

E21 ("photon to served key") and its in-tree baseline are described in
``benchmarks/e21/README.md``; run it with ``python -m benchmarks.e21``.

Every other experiment is a tier-1 test.  The paper's quantitative claims
are rows of ``tests/test_paper_claims.py``; the service soaks are rows of
``tests/test_soak_claims.py`` run over seeds, plus the whole-stack fault
swarm in ``tests/test_swarm.py``.  Each retired bench file maps to the rows
named by its experiment:

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
* ``bench_e15_kms_soak.py``              -> ``E15:`` (``tests/test_soak_claims.py``)
* ``bench_e18_chaos_soak.py``            -> ``E18:`` and the swarm's network phase
* ``bench_e19_dtn_soak.py``              -> ``E19:``
* ``bench_e20_metro_soak.py``            -> ``E20:``

Select one experiment's rows with ``pytest tests/test_soak_claims.py -k "E19:"``.
"""
