let downsample xs ~points =
  let n = Array.length xs in
  if n = 0 || points <= 0 then [||]
  else
    let buckets = min points n in
    Array.init buckets (fun b ->
        let lo = b * n / buckets and hi = (((b + 1) * n) / buckets) - 1 in
        let sum = ref 0.0 in
        for j = lo to hi do
          sum := !sum +. xs.(j)
        done;
        (lo, !sum /. float_of_int (hi - lo + 1)))

let blocks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline xs ~width =
  let pts = downsample xs ~points:width in
  if Array.length pts = 0 then ""
  else begin
    let lo = ref infinity and hi = ref neg_infinity in
    Array.iter
      (fun (_, v) ->
        if v < !lo then lo := v;
        if v > !hi then hi := v)
      pts;
    let span = if !hi > !lo then !hi -. !lo else 1.0 in
    let buf = Buffer.create (Array.length pts * 3) in
    Array.iter
      (fun (_, v) ->
        let level = int_of_float (7.9 *. (v -. !lo) /. span) in
        Buffer.add_string buf blocks.(max 0 (min 7 level)))
      pts;
    Buffer.contents buf
  end
