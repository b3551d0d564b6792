"""The package's public names: each module lists its own, and the package re-exports them."""

import parastrip

PUBLIC = """
    CauchyProblem ComplexField ConfigurationError ConvergenceError DivergenceOperator
    DomainError GardingFit Grid HermiteData InstabilityError MaxRegSample NormParams
    OperatorPlan ParastripError PayoffSpec ReactionSpec ShiftFamily SolveResult SolverConfig
    StepConstants StripSpec TemporalDomain XvaParams __version__ analyticity_time_horizon
    apply_operator besov_norm bs_log_generator compute_xva_surfaces
    contraction_step_fraction cr_residual_space cr_residual_time default_maxreg_ensemble
    derivative_multiplier ellipticity_samples estimate_ellipticity_constant
    estimate_max_reg_constant eval_hermite evaluate_at f_minus f_minus_prime f_plus
    f_plus_prime hardy_integral hermite_payoff_fit heston_chart_generator heston_generator
    in_branch_domain jet_lipschitz_estimate leading_symbol littlewood_paley_blocks lp_norm
    make_grid multi_indices nemytskii path_independence_check price_riskfree
    price_xva_linear price_xva_nonlinear random_band_limited_fields sample_on_shifted_grid
    shift_consistency_check smoother_identity_check sobolev_hs_norm solve_along_path
    solve_complex_ray solve_real solve_shift_family spectral_derivative
    step_size_from_estimates strip_norm strip_sup_over_time terminal_data verify_garding
    verify_price_analyticity
""".split()


def test_package_all_has_each_public_name_once_and_every_entry_resolves():
    names = parastrip.__all__
    assert len(names) == len(set(names)) == len(PUBLIC)
    assert sorted(names) == sorted(PUBLIC)
    for name in names:
        assert hasattr(parastrip, name), name


def test_each_module_lists_the_names_it_defines():
    modules = [parastrip.analyticity, parastrip.errors, parastrip.grid, parastrip.norms,
               parastrip.operators, parastrip.reaction, parastrip.solver, parastrip.xva]
    for module in modules:
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, (module.__name__, name)
