let check_lambda lambda =
  if lambda < 0.0 then invalid_arg "Poisson: lambda must be non-negative"

let pmf ~lambda k =
  check_lambda lambda;
  if k < 0 then invalid_arg "Poisson.pmf: k must be non-negative";
  if lambda = 0.0 then (if k = 0 then 1.0 else 0.0)
  else
    exp ((float_of_int k *. log lambda) -. lambda -. Special.log_factorial k)

let cdf ~lambda k =
  check_lambda lambda;
  if k < 0 then 0.0
  else if lambda = 0.0 then 1.0
  else Special.regularized_gamma_q (float_of_int (k + 1)) lambda

let sample rng ~lambda =
  check_lambda lambda;
  if lambda = 0.0 then 0
  else if lambda < 30.0 then begin
    (* Knuth: multiply uniforms until the product drops below e^-λ. *)
    let limit = exp (-.lambda) in
    let k = ref 0 in
    let p = ref 1.0 in
    let continue = ref true in
    while !continue do
      p := !p *. Prng.float rng 1.0;
      if !p > limit then incr k else continue := false
    done;
    !k
  end
  else begin
    (* Inversion by sequential search on the CDF; fine for moderate λ. *)
    let u = Prng.float rng 1.0 in
    let k = ref 0 in
    let acc = ref (pmf ~lambda 0) in
    while !acc < u && !k < 100_000 do
      incr k;
      acc := !acc +. pmf ~lambda !k
    done;
    !k
  end
