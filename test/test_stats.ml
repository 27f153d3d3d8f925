(* Tests for the numerical substrate: special functions, Poisson,
   binomial, FIT rates, confidence intervals, summaries. *)

let close ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps *. Float.max 1.0 (Float.abs expected)
  then
    Alcotest.failf "%s: expected %.12g, got %.12g" what expected actual

(* ------------------------------------------------------------------ *)
(* Special functions                                                  *)
(* ------------------------------------------------------------------ *)

let test_log_gamma () =
  close "lnGamma(1)" 0.0 (Special.log_gamma 1.0) ~eps:1e-10;
  close "lnGamma(5) = ln 24" (log 24.0) (Special.log_gamma 5.0);
  close "lnGamma(0.5) = ln sqrt(pi)"
    (0.5 *. log Float.pi)
    (Special.log_gamma 0.5);
  close "lnGamma(10.3)" (Special.log_gamma 10.3)
    (log 9.3 +. Special.log_gamma 9.3)

let test_log_factorial () =
  close "0!" 0.0 (Special.log_factorial 0) ~eps:1e-12;
  close "5!" (log 120.0) (Special.log_factorial 5);
  close "20!" (log 2432902008176640000.0) (Special.log_factorial 20);
  close "200! recurrence"
    (Special.log_factorial 200)
    (log 200.0 +. Special.log_factorial 199);
  Alcotest.check_raises "negative"
    (Invalid_argument "Special.log_factorial: negative argument") (fun () ->
      ignore (Special.log_factorial (-1)))

let test_gamma_p () =
  (* P(1, x) = 1 - e^-x *)
  close "P(1, 2)" (1.0 -. exp (-2.0)) (Special.regularized_gamma_p 1.0 2.0);
  close "P(a, 0)" 0.0 (Special.regularized_gamma_p 3.0 0.0) ~eps:1e-12;
  close "P + Q = 1" 1.0
    (Special.regularized_gamma_p 2.5 3.0 +. Special.regularized_gamma_q 2.5 3.0);
  (* Monotonicity in x. *)
  let p1 = Special.regularized_gamma_p 2.0 1.0 in
  let p2 = Special.regularized_gamma_p 2.0 2.0 in
  Alcotest.(check bool) "monotone" true (p2 > p1)

let test_beta () =
  close "I_x(1,1) = x" 0.37 (Special.regularized_beta 0.37 ~a:1.0 ~b:1.0);
  close "I_0" 0.0 (Special.regularized_beta 0.0 ~a:2.0 ~b:3.0) ~eps:1e-12;
  close "I_1" 1.0 (Special.regularized_beta 1.0 ~a:2.0 ~b:3.0) ~eps:1e-12;
  (* Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a) *)
  close "symmetry"
    (Special.regularized_beta 0.3 ~a:2.0 ~b:5.0)
    (1.0 -. Special.regularized_beta 0.7 ~a:5.0 ~b:2.0)

let test_erf () =
  close "erf(0)" 0.0 (Special.erf 0.0) ~eps:1e-12;
  close "erf(1)" 0.8427007929497149 (Special.erf 1.0) ~eps:1e-7;
  close "erf(-1) odd" (-.Special.erf 1.0) (Special.erf (-1.0))

let test_inverse_normal () =
  close "median" 0.0 (Special.inverse_normal_cdf 0.5) ~eps:1e-8;
  close "97.5%" 1.959963984540054 (Special.inverse_normal_cdf 0.975) ~eps:1e-6;
  close "2.5%" (-1.959963984540054) (Special.inverse_normal_cdf 0.025)
    ~eps:1e-6;
  close "99.5%" 2.5758293035489004 (Special.inverse_normal_cdf 0.995) ~eps:1e-6;
  Alcotest.check_raises "domain"
    (Invalid_argument "Special.inverse_normal_cdf: p outside (0,1)") (fun () ->
      ignore (Special.inverse_normal_cdf 0.0))

(* ------------------------------------------------------------------ *)
(* Poisson                                                            *)
(* ------------------------------------------------------------------ *)

let test_poisson_pmf () =
  close "P_2(0)" (exp (-2.0)) (Poisson.pmf ~lambda:2.0 0);
  close "P_2(1)" (2.0 *. exp (-2.0)) (Poisson.pmf ~lambda:2.0 1);
  close "P_2(3)" (8.0 /. 6.0 *. exp (-2.0)) (Poisson.pmf ~lambda:2.0 3);
  close "P_0(0)" 1.0 (Poisson.pmf ~lambda:0.0 0) ~eps:1e-12

let test_poisson_pmf_sums_to_one () =
  let lambda = 4.5 in
  let total = ref 0.0 in
  for k = 0 to 80 do
    total := !total +. Poisson.pmf ~lambda k
  done;
  close "sum" 1.0 !total ~eps:1e-10

let test_poisson_cdf () =
  let lambda = 3.3 in
  let partial = ref 0.0 in
  for k = 0 to 10 do
    partial := !partial +. Poisson.pmf ~lambda k;
    close
      (Printf.sprintf "cdf k=%d" k)
      !partial
      (Poisson.cdf ~lambda k)
      ~eps:1e-9
  done

let test_poisson_extreme_lambda () =
  (* The Table-I regime: lambda ~ 1.66e-14. *)
  let lambda = 1.66e-14 in
  close "P(0) ~ 1" 1.0 (Poisson.pmf ~lambda 0) ~eps:1e-10;
  close "P(1) ~ lambda" lambda (Poisson.pmf ~lambda 1) ~eps:1e-10;
  close "P(2) ~ lambda^2/2"
    (lambda *. lambda /. 2.0)
    (Poisson.pmf ~lambda 2)
    ~eps:1e-8

let test_poisson_sample_mean () =
  let rng = Prng.create ~seed:21L in
  let lambda = 6.0 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Poisson.sample rng ~lambda
  done;
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "sample mean near lambda" true
    (Float.abs (mean -. lambda) < 0.1)

(* ------------------------------------------------------------------ *)
(* Binomial                                                           *)
(* ------------------------------------------------------------------ *)

let test_binomial_pmf () =
  close "B(4,0.5) at 2" 0.375 (Binomial.pmf ~n:4 ~p:0.5 2);
  close "B(n,p) at 0" (0.7 ** 10.0) (Binomial.pmf ~n:10 ~p:0.3 0);
  close "sum to 1"
    1.0
    (List.fold_left ( +. ) 0.0
       (List.init 13 (fun k -> Binomial.pmf ~n:12 ~p:0.37 k)))
    ~eps:1e-10

let test_binomial_cdf () =
  let n = 15 and p = 0.42 in
  let partial = ref 0.0 in
  for k = 0 to n do
    partial := !partial +. Binomial.pmf ~n ~p k;
    close (Printf.sprintf "cdf %d" k) !partial (Binomial.cdf ~n ~p k) ~eps:1e-8
  done

let test_binomial_log_choose () =
  close "C(10,3)" (log 120.0) (Binomial.log_choose 10 3);
  close "symmetry" (Binomial.log_choose 20 6) (Binomial.log_choose 20 14)

let test_poisson_approximates_binomial () =
  (* The paper's Section III-A argument: faults per run are binomial with
     tiny p; Poisson(np) approximates it. *)
  let n = 1_000_000 and p = 2e-6 in
  let lambda = float_of_int n *. p in
  for k = 0 to 5 do
    let b = Binomial.pmf ~n ~p k in
    let po = Poisson.pmf ~lambda k in
    if Float.abs (b -. po) > 1e-4 *. Float.max b 1e-12 +. 1e-9 then
      Alcotest.failf "k=%d: binomial %.6e vs poisson %.6e" k b po
  done

(* ------------------------------------------------------------------ *)
(* FIT rates                                                          *)
(* ------------------------------------------------------------------ *)

let test_fit_mean () =
  close "mean of published rates" 0.057
    (Fit_rate.to_float Fit_rate.mean_published)
    ~eps:1e-12

let test_fit_per_bit_per_ns () =
  (* paper: ~1.6e-29 per ns and bit *)
  let g = Fit_rate.per_bit_per_ns Fit_rate.mean_published in
  Alcotest.(check bool) "order of magnitude" true
    (g > 1.5e-29 && g < 1.7e-29)

let test_fit_lambda () =
  let lambda =
    Fit_rate.lambda Fit_rate.mean_published ~cycles:1_000_000_000
      ~ns_per_cycle:1.0 ~bits:(1 lsl 20)
  in
  (* g*dt*dm = 1.583e-29 * 1e9 * 1048576 ~ 1.66e-14 *)
  Alcotest.(check bool) "lambda magnitude" true
    (lambda > 1.5e-14 && lambda < 1.8e-14)

let test_fit_negative () =
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Fit_rate.of_fit_per_mbit: negative rate") (fun () ->
      ignore (Fit_rate.of_fit_per_mbit (-1.0)))

(* ------------------------------------------------------------------ *)
(* Confidence intervals                                               *)
(* ------------------------------------------------------------------ *)

let test_wilson_contains_estimate () =
  let { Confidence.lower; upper } =
    Confidence.wilson ~fails:30 ~trials:100 ~confidence:0.95
  in
  Alcotest.(check bool) "contains p-hat" true (lower < 0.3 && upper > 0.3);
  Alcotest.(check bool) "proper interval" true (0.0 <= lower && upper <= 1.0)

let test_wilson_narrows () =
  let i1 = Confidence.wilson ~fails:30 ~trials:100 ~confidence:0.95 in
  let i2 = Confidence.wilson ~fails:300 ~trials:1000 ~confidence:0.95 in
  Alcotest.(check bool) "narrower with more trials" true
    (i2.Confidence.upper -. i2.Confidence.lower
    < i1.Confidence.upper -. i1.Confidence.lower)

let test_clopper_pearson_conservative () =
  let w = Confidence.wilson ~fails:5 ~trials:50 ~confidence:0.95 in
  let cp = Confidence.clopper_pearson ~fails:5 ~trials:50 ~confidence:0.95 in
  Alcotest.(check bool) "CP at least as wide" true
    (cp.Confidence.upper -. cp.Confidence.lower
     >= w.Confidence.upper -. w.Confidence.lower -. 1e-9)

let test_clopper_pearson_edges () =
  let cp0 = Confidence.clopper_pearson ~fails:0 ~trials:20 ~confidence:0.95 in
  close "lower at 0 fails" 0.0 cp0.Confidence.lower ~eps:1e-12;
  let cpn = Confidence.clopper_pearson ~fails:20 ~trials:20 ~confidence:0.95 in
  close "upper at all fails" 1.0 cpn.Confidence.upper ~eps:1e-12

let test_wald_domain () =
  Alcotest.check_raises "fails > trials"
    (Invalid_argument "Confidence: fails outside [0, trials]") (fun () ->
      ignore (Confidence.wald ~fails:5 ~trials:4 ~confidence:0.9))

let test_sample_size () =
  let n1 = Confidence.sample_size ~half_width:0.01 ~confidence:0.95 ~worst_case_p:0.5 in
  (* classic 9604 *)
  Alcotest.(check int) "classic n" 9604 n1;
  let n2 = Confidence.sample_size ~half_width:0.02 ~confidence:0.95 ~worst_case_p:0.5 in
  Alcotest.(check bool) "smaller for wider interval" true (n2 < n1)

let suite =
  ( "stats",
    [
      Alcotest.test_case "log_gamma" `Quick test_log_gamma;
      Alcotest.test_case "log_factorial" `Quick test_log_factorial;
      Alcotest.test_case "incomplete gamma" `Quick test_gamma_p;
      Alcotest.test_case "incomplete beta" `Quick test_beta;
      Alcotest.test_case "erf" `Quick test_erf;
      Alcotest.test_case "inverse normal cdf" `Quick test_inverse_normal;
      Alcotest.test_case "poisson pmf" `Quick test_poisson_pmf;
      Alcotest.test_case "poisson pmf sums to 1" `Quick
        test_poisson_pmf_sums_to_one;
      Alcotest.test_case "poisson cdf" `Quick test_poisson_cdf;
      Alcotest.test_case "poisson extreme lambda" `Quick
        test_poisson_extreme_lambda;
      Alcotest.test_case "poisson sampling" `Quick test_poisson_sample_mean;
      Alcotest.test_case "binomial pmf" `Quick test_binomial_pmf;
      Alcotest.test_case "binomial cdf" `Quick test_binomial_cdf;
      Alcotest.test_case "binomial log_choose" `Quick test_binomial_log_choose;
      Alcotest.test_case "poisson approximates binomial" `Quick
        test_poisson_approximates_binomial;
      Alcotest.test_case "fit mean" `Quick test_fit_mean;
      Alcotest.test_case "fit per bit per ns" `Quick test_fit_per_bit_per_ns;
      Alcotest.test_case "fit lambda" `Quick test_fit_lambda;
      Alcotest.test_case "fit negative" `Quick test_fit_negative;
      Alcotest.test_case "wilson contains estimate" `Quick
        test_wilson_contains_estimate;
      Alcotest.test_case "wilson narrows" `Quick test_wilson_narrows;
      Alcotest.test_case "clopper-pearson conservative" `Quick
        test_clopper_pearson_conservative;
      Alcotest.test_case "clopper-pearson edges" `Quick
        test_clopper_pearson_edges;
      Alcotest.test_case "wald domain" `Quick test_wald_domain;
      Alcotest.test_case "sample size" `Quick test_sample_size;
    ] )
