(* The machine a result was measured on, recorded with every result. *)

let cpuinfo () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic |> String.split_on_char '\n')

let field line key =
  match String.index_opt line ':' with
  | Some i when String.trim (String.sub line 0 i) = key ->
    Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
  | _ -> None

let record ~seed =
  let lines = cpuinfo () in
  let nproc =
    match List.filter (fun l -> field l "processor" <> None) lines with
    | [] -> Domain.recommended_domain_count ()
    | ps -> List.length ps
  in
  let model =
    Option.value ~default:"unknown"
      (List.find_map (fun l -> field l "model name") lines)
  in
  Json.obj
    [
      ("nproc", string_of_int nproc);
      ( "recommended_domain_count",
        string_of_int (Domain.recommended_domain_count ()) );
      ("ocaml_version", Json.str Sys.ocaml_version);
      ("cpu_model", Json.str model);
      ("seed", string_of_int seed);
    ]
