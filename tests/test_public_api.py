import qsd


def test_public_api():
    names = qsd.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(qsd, name) is not None, name
    for gone in ("Factorization", "factorize", "BlockMatrix", "build_psi", "selector",
                 "NotConvergedError", "NotPsdError", "sqrt_psd", "is_psd",
                 "lsm_is_projective_expected", "State", "inv_sqrt_psd",
                 "numeric_rank", "direct_sum_rank", "EigResult"):
        assert not hasattr(qsd, gone), gone
