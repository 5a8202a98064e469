type verdict = {
  interval : int;
  n_intervals : int;
  cpi_mean : float;
  cpi_variance : float;
  window_variance : float;
  re : float option;
  kopt : int option;
  quadrant : Fuzzy.Quadrant.t option;
  confidence : float;
  drift : bool;
  refit : bool;
}

type t = {
  sketch : Sketch.t;
  mutable current_re : (float * int) option;  (* RE_kopt, k_opt *)
}

let create ~window = { sketch = Sketch.create ~window (); current_re = None }

let observe t ~cpi = Sketch.add t.sketch cpi
let publish t ~re ~kopt = t.current_re <- Some (re, kopt)
let n t = Sketch.n t.sketch
let cpi_variance t = Sketch.variance t.sketch

(* Distance from a decision threshold in decades, squashed into [0,1). *)
let axis_confidence ~metric ~threshold =
  let m = Float.max metric 1e-12 in
  1.0 -. exp (-.Float.abs (log10 (m /. threshold)))

let confidence t =
  let maturity = 1.0 -. exp (-.float_of_int (Sketch.n t.sketch) /. 32.0) in
  let var_axis =
    axis_confidence ~metric:(cpi_variance t) ~threshold:Fuzzy.Quadrant.default_var_threshold
  in
  match t.current_re with
  | None -> 0.0
  | Some (re, _) ->
      let re_axis =
        axis_confidence ~metric:re ~threshold:Fuzzy.Quadrant.default_re_threshold
      in
      maturity *. Float.min var_axis re_axis

let verdict t ~interval ~drift ~refit =
  let cpi_variance = cpi_variance t in
  let re, kopt, quadrant =
    match t.current_re with
    | None -> (None, None, None)
    | Some (re, k) ->
        (Some re, Some k, Some (Fuzzy.Quadrant.classify ~cpi_variance ~re ()))
  in
  {
    interval;
    n_intervals = Sketch.n t.sketch;
    cpi_mean = Sketch.mean t.sketch;
    cpi_variance;
    window_variance = Sketch.window_variance t.sketch;
    re;
    kopt;
    quadrant;
    confidence = confidence t;
    drift;
    refit;
  }

let pp_verdict ppf v =
  let quadrant =
    match v.quadrant with Some q -> Fuzzy.Quadrant.to_string q | None -> "?"
  in
  let re = match v.re with Some re -> Printf.sprintf "%.6f" re | None -> "-" in
  let kopt = match v.kopt with Some k -> string_of_int k | None -> "-" in
  Format.fprintf ppf "[%4d] cpi=%.6f var=%.6f win=%.6f re=%s k=%s quadrant=%-5s conf=%.3f%s%s"
    v.interval v.cpi_mean v.cpi_variance v.window_variance re kopt quadrant v.confidence
    (if v.drift then " drift" else "")
    (if v.refit then " refit" else "")
