type entry = { allowed_id : Match_id.t; allowed_portal : int option }

type t = { entries : entry option array }

let create ~size =
  if size < 0 then invalid_arg "Acl.create: negative size";
  { entries = Array.make size None }

let set t i entry =
  if i < 0 || i >= Array.length t.entries then Error Errors.Invalid_ac_index
  else begin
    t.entries.(i) <- Some entry;
    Ok ()
  end

let get t i =
  if i < 0 || i >= Array.length t.entries then None else t.entries.(i)

let default_cookie_job = 0

let install_defaults t ~job_id =
  if Array.length t.entries > 0 then
    t.entries.(0) <- Some { allowed_id = job_id; allowed_portal = None };
  if Array.length t.entries > 1 then
    t.entries.(1) <- Some { allowed_id = Match_id.any; allowed_portal = None }

type failure = Bad_cookie | Id_mismatch | Portal_mismatch

let check t ~cookie ~src ~portal_index =
  match get t cookie with
  | None -> Error Bad_cookie
  | Some entry ->
    if not (Match_id.matches entry.allowed_id src) then Error Id_mismatch
    else begin
      match entry.allowed_portal with
      | Some p when p <> portal_index -> Error Portal_mismatch
      | Some _ | None -> Ok ()
    end
