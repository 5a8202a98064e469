type kind = Spec | Odb_h of int | Odb_c | Sjas

type entry = {
  name : string;
  kind : kind;
  expected_quadrant : int;
  build : seed:int -> scale:float -> Model.t;
}

(* Designed quadrants for the ODB-H queries: index-scan plans in Q-III,
   multi-phase plans in Q-IV, scan+aggregate plans in Q-II, trivial
   cache-resident queries in Q-I (synthesis documented in DESIGN.md). *)
let odb_h_quadrant q =
  match q with
  | 2 | 16 | 17 | 18 | 19 | 20 | 21 -> 3
  | 3 | 4 | 5 | 7 | 8 | 9 | 10 | 12 | 13 -> 4
  | 1 | 6 | 14 | 15 -> 2
  | 11 | 22 -> 1
  | _ -> invalid_arg "odb_h_quadrant"

let scaled_oltp ~seed ~scale =
  let p = { Oltp.default_params with scale } in
  Oltp.model ~params:p ~seed ()

let scaled_sjas ~seed ~scale =
  let p =
    if scale >= 1.0 then Appserver.default_params
    else
      {
        Appserver.default_params with
        session_bytes =
          max (1 lsl 20) (int_of_float (float_of_int Appserver.default_params.session_bytes *. scale));
        oldgen_bytes =
          max (1 lsl 20) (int_of_float (float_of_int Appserver.default_params.oldgen_bytes *. scale));
      }
  in
  Appserver.model ~params:p ~seed ()

let scaled_dss q ~seed ~scale =
  let p = { Dss.default_params with scale } in
  Dss.model ~params:p ~seed ~query:q ()

let all =
  let servers =
    [|
      { name = "odb_c"; kind = Odb_c; expected_quadrant = 1; build = scaled_oltp };
      { name = "sjas"; kind = Sjas; expected_quadrant = 3; build = scaled_sjas };
    |]
  in
  let spec =
    Array.map
      (fun n ->
        {
          name = n;
          kind = Spec;
          expected_quadrant = Spec.expected_quadrant n;
          build = (fun ~seed ~scale -> ignore scale; Spec.model ~seed n);
        })
      Spec.names
  in
  let odbh =
    Array.init Dbengine.Tpch.n_queries (fun i ->
        let q = i + 1 in
        {
          name = Printf.sprintf "odb_h_q%d" q;
          kind = Odb_h q;
          expected_quadrant = odb_h_quadrant q;
          build = scaled_dss q;
        })
  in
  let entries = Array.concat [ servers; spec; odbh ] in
  (* Listing order is a published invariant: sorted by name, so zoo
     manifests, atlas rows and `repro workloads` can never depend on
     registration order. *)
  Array.sort (fun a b -> String.compare a.name b.name) entries;
  entries

let names = Array.map (fun e -> e.name) all
let find_opt name = Array.find_opt (fun e -> e.name = name) all

let find name =
  match find_opt name with
  | Some e -> e
  | None -> raise Not_found
