module Sink = Dbengine.Sink
module Tpch = Dbengine.Tpch
module Query = Dbengine.Query

type params = {
  scale : float;
  threads : int;
  buf_pages : int;
}

let default_params = { scale = 1.0; threads = 1; buf_pages = 4096 }

let eips_per_op = 1100

let make_model ~params ?addr_base ~seed ~name ~plan_of_db ~query () =
  let db = Tpch.create ~scale:params.scale ~buf_pages:params.buf_pages ?addr_base ~seed () in
  let code = Code_map.create () in
  let base = Tpch.region_base query in
  (* Register generously: up to 8 operator regions per query. *)
  for i = 0 to 7 do
    Code_map.register code ~region:(base + i) ~n_eips:eips_per_op ~skew:0.9 ()
  done;
  let make_thread tid =
    let plan = plan_of_db db in
    let fill sink ~budget =
      let start = Sink.total_instrs sink in
      let blocked = ref false in
      while (not !blocked) && Sink.total_instrs sink - start < budget do
        match Query.step plan sink with
        | Query.More | Query.Query_done -> ()
        | Query.Blocked -> blocked := true
      done;
      if !blocked then `Blocked else `Ok
    in
    { Model.tid; fill }
  in
  let threads = Array.init params.threads make_thread in
  Model.make ~name ~code ~threads
    ~switch_period:1_500_000 (* far lower switch rate than ODB-C *)
    ~os_per_switch:8_000 ~os_per_io:2_500 ~pollute_on_switch:0.25 ()

let q18_model ?(params = default_params) ~seed ~access () =
  make_model ~params ~seed
    ~name:(Printf.sprintf "odb_h_q18[%s]" (Dbengine.Optimizer.to_string access))
    ~plan_of_db:(fun db -> Tpch.q18_variant db ~access)
    ~query:18 ()

let model ?(params = default_params) ?name ?addr_base ~seed ~query () =
  if query < 1 || query > Tpch.n_queries then invalid_arg "Dss.model: query out of 1..22";
  make_model ~params ?addr_base ~seed
    ~name:(match name with Some n -> n | None -> Printf.sprintf "odb_h_q%d" query)
    ~plan_of_db:(fun db -> Tpch.query db query)
    ~query ()
