(** Time-series helpers for figure regeneration.

    The paper's figures are time plots (EIP spread, CPI over time, stacked
    CPI breakdowns).  We regenerate them as printable series: downsampled
    rows of (time, value...) plus terminal sparklines. *)

val downsample : float array -> points:int -> (int * float) array
(** [downsample xs ~points] buckets [xs] into at most [points] buckets and
    returns (first-index-of-bucket, bucket mean) pairs. *)

val sparkline : float array -> width:int -> string
(** Unicode sparkline scaled to the series' own min/max. *)
