let log_choose n k =
  if k < 0 || n < 0 || k > n then invalid_arg "Binomial.log_choose: domain";
  Special.log_factorial n -. Special.log_factorial k
  -. Special.log_factorial (n - k)

let check n p =
  if n < 0 then invalid_arg "Binomial: n must be non-negative";
  if p < 0.0 || p > 1.0 then invalid_arg "Binomial: p outside [0,1]"

let pmf ~n ~p k =
  check n p;
  if k < 0 || k > n then 0.0
  else if p = 0.0 then (if k = 0 then 1.0 else 0.0)
  else if p = 1.0 then (if k = n then 1.0 else 0.0)
  else
    exp
      (log_choose n k
      +. (float_of_int k *. log p)
      +. (float_of_int (n - k) *. log (1.0 -. p)))

let cdf ~n ~p k =
  check n p;
  if k < 0 then 0.0
  else if k >= n then 1.0
  else
    (* P(X <= k) = I_{1-p}(n-k, k+1) *)
    Special.regularized_beta (1.0 -. p)
      ~a:(float_of_int (n - k))
      ~b:(float_of_int (k + 1))
